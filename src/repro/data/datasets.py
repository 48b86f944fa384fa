"""Dataset registry reproducing Table 2.

Each :class:`DatasetSpec` carries the statistics the characterization
consumes.  Encoding formats follow the public distributions: Weed
Detection in Soybean ships as TIFF (the encoding-format difference the
paper credits for PyTorch's per-dataset preprocessing variance), the other
classification sets as JPEG, and CRSA as raw camera frames.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.bounds import within
from repro.data.distributions import (
    FixedSize,
    ImageSizeDistribution,
    VariableSize,
)


class ImageFormat(str, enum.Enum):
    """On-disk encoding; drives decode cost and transfer size."""

    JPEG = "jpeg"
    TIFF = "tiff"
    RAW = "raw"

    @property
    def bytes_per_pixel(self) -> float:
        """Nominal encoded bytes per pixel (RGB).

        JPEG ~quality-85 compression; TIFF LZW-ish (near-lossless, large);
        RAW camera frames are unencoded 3 B/px.
        """
        return {ImageFormat.JPEG: 0.45,
                ImageFormat.TIFF: 2.2,
                ImageFormat.RAW: 3.0}[self]

    @property
    def decode_cost_per_byte(self) -> float:
        """Relative CPU decode work per encoded byte (JPEG = 1.0).

        JPEG needs entropy decoding + IDCT per byte; TIFF's LZW is cheap
        per byte (but there are many more bytes); RAW needs none.
        """
        return {ImageFormat.JPEG: 1.0,
                ImageFormat.TIFF: 0.25,
                ImageFormat.RAW: 0.02}[self]


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """One evaluated data source (a Table 2 row)."""

    name: str
    display_name: str
    classes: int | None
    samples: int
    size_distribution: ImageSizeDistribution
    image_format: ImageFormat
    use_case: str
    #: True for sources needing dataset-specific preprocessing before the
    #: model pipeline (CRSA: perspective transform of raw camera frames).
    dataset_specific_preprocessing: bool = False

    def __post_init__(self) -> None:
        within("samples", self.samples, "[1, inf)")
        if self.classes is not None:
            within("classes", self.classes, "[2, inf)")

    @property
    def mode_size(self) -> tuple[int, int]:
        """Modal (width, height) — the Fig. 4 label."""
        return self.size_distribution.mode

    def encoded_bytes_at_mode(self) -> float:
        """Nominal encoded file size of a modal image."""
        w, h = self.mode_size
        return w * h * self.image_format.bytes_per_pixel


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec(
            name="plant_village",
            display_name="Plant Village",
            classes=39, samples=43430,
            size_distribution=FixedSize(256, 256),
            image_format=ImageFormat.JPEG,
            use_case="Plant disease classification",
        ),
        DatasetSpec(
            name="weed_soybean",
            display_name="Weed Detection in Soybean",
            classes=4, samples=10635,
            size_distribution=VariableSize(233, 233, sigma=0.16),
            image_format=ImageFormat.TIFF,
            use_case="Weed detection in soybeans",
        ),
        DatasetSpec(
            name="spittle_bug",
            display_name="Sugar Cane-Spittle Bug",
            classes=2, samples=10100,
            size_distribution=VariableSize(61, 61, sigma=0.45),
            image_format=ImageFormat.JPEG,
            use_case="Pest bugs detection",
        ),
        DatasetSpec(
            name="fruits_360",
            display_name="Fruits-360",
            classes=81, samples=40998,
            size_distribution=FixedSize(100, 100),
            image_format=ImageFormat.JPEG,
            use_case="Fruits classification",
        ),
        DatasetSpec(
            name="corn_growth",
            display_name="Corn Growth Stage",
            classes=23, samples=52198,
            size_distribution=FixedSize(224, 224),
            image_format=ImageFormat.JPEG,
            use_case="Corn Growth Stage Classification, UAS Based",
        ),
        DatasetSpec(
            name="crsa",
            display_name="CRSA",
            classes=None, samples=992,
            size_distribution=FixedSize(3840, 2160),
            image_format=ImageFormat.RAW,
            use_case="Crop Residue Soil Aggregate, Ground Vehicle based",
            dataset_specific_preprocessing=True,
        ),
    )
}

#: Table 2 row order.
DATASET_ORDER: tuple[str, ...] = (
    "plant_village", "weed_soybean", "spittle_bug",
    "fruits_360", "corn_growth", "crsa",
)


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset by registry name (case-insensitive)."""
    try:
        return DATASETS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None


def list_datasets() -> list[DatasetSpec]:
    """All datasets in Table 2 row order."""
    return [DATASETS[name] for name in DATASET_ORDER]


def table2_rows() -> list[dict]:
    """Regenerate Table 2."""
    rows = []
    for spec in list_datasets():
        w, h = spec.mode_size
        rows.append({
            "dataset": spec.display_name,
            "classes": spec.classes if spec.classes is not None else "-",
            "samples": spec.samples,
            "image_size": (f"{w}x{h}" if spec.size_distribution.is_uniform
                           else f"variable (mode {w}x{h})"),
            "format": spec.image_format.value,
            "use_case": spec.use_case,
        })
    return rows
