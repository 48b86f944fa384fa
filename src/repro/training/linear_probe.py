"""Linear-probe heads: real NumPy training.

Multinomial logistic regression over frozen features, trained by
full-batch gradient descent with momentum and L2 regularization — actual
backpropagation (the softmax cross-entropy gradient), deterministic
given the seed, fast enough for the "agile deployment with fast training
times" story on a laptop.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.bounds import within
from repro.models.functional import softmax


@dataclasses.dataclass(frozen=True)
class ProbeResult:
    """Outcome of one probe fit."""

    train_accuracy: float
    test_accuracy: float
    final_loss: float
    epochs_run: int


def train_test_split(x: np.ndarray, y: np.ndarray, test_fraction: float,
                     rng: np.random.Generator,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """Shuffled split; both sides non-empty."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y lengths differ")
    n = x.shape[0]
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise ValueError("not enough samples to split")
    order = rng.permutation(n)
    test_idx, train_idx = order[:n_test], order[n_test:]
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]


class LinearProbe:
    """Softmax-regression head over frozen features."""

    def __init__(self, feature_dim: int, classes: int,
                 learning_rate: float = 0.5, momentum: float = 0.9,
                 weight_decay: float = 1e-4, epochs: int = 200,
                 seed: int = 0):
        if feature_dim < 1 or classes < 2:
            raise ValueError("need feature_dim >= 1 and classes >= 2")
        within("momentum", momentum, "[0, 1)")
        if learning_rate <= 0 or epochs < 1:
            raise ValueError("learning rate and epochs must be positive")
        self.classes = classes
        self.feature_dim = feature_dim
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.epochs = epochs
        rng = np.random.default_rng(seed)
        self.weight = (rng.standard_normal((classes, feature_dim))
                       * 0.01).astype(np.float64)
        self.bias = np.zeros(classes, np.float64)
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------
    def _loss_and_grads(self, x: np.ndarray, y_onehot: np.ndarray):
        logits = x @ self.weight.T + self.bias
        probs = softmax(logits, axis=1)
        n = x.shape[0]
        eps = 1e-12
        loss = -np.mean(np.sum(y_onehot * np.log(probs + eps), axis=1))
        loss += 0.5 * self.weight_decay * float(np.sum(self.weight ** 2))
        delta = (probs - y_onehot) / n
        grad_w = delta.T @ x + self.weight_decay * self.weight
        grad_b = delta.sum(axis=0)
        return loss, grad_w, grad_b

    def fit(self, x: np.ndarray, y: np.ndarray,
            x_test: np.ndarray | None = None,
            y_test: np.ndarray | None = None,
            tolerance: float = 1e-6) -> ProbeResult:
        """Full-batch GD with momentum; early stop on loss plateau."""
        x = np.asarray(x, np.float64)
        y = np.asarray(y)
        if x.shape[1] != self.feature_dim:
            raise ValueError(
                f"features are {x.shape[1]}-d, probe expects "
                f"{self.feature_dim}")
        if y.min() < 0 or y.max() >= self.classes:
            raise ValueError("labels outside the class range")
        y_onehot = np.eye(self.classes)[y]
        velocity_w = np.zeros_like(self.weight)
        velocity_b = np.zeros_like(self.bias)
        previous = np.inf
        epochs_run = 0
        for epoch in range(self.epochs):
            loss, grad_w, grad_b = self._loss_and_grads(x, y_onehot)
            self.loss_history.append(loss)
            velocity_w = self.momentum * velocity_w - \
                self.learning_rate * grad_w
            velocity_b = self.momentum * velocity_b - \
                self.learning_rate * grad_b
            self.weight += velocity_w
            self.bias += velocity_b
            epochs_run = epoch + 1
            if abs(previous - loss) < tolerance:
                break
            previous = loss
        train_acc = self.accuracy(x, y)
        test_acc = (self.accuracy(x_test, y_test)
                    if x_test is not None and y_test is not None
                    else float("nan"))
        return ProbeResult(train_acc, test_acc,
                           self.loss_history[-1], epochs_run)

    # ------------------------------------------------------------------
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class posteriors for a feature batch."""
        return softmax(np.asarray(x, np.float64) @ self.weight.T
                       + self.bias, axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class predictions."""
        return self.predict_proba(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Top-1 accuracy on (features, labels)."""
        return float(np.mean(self.predict(x) == np.asarray(y)))
