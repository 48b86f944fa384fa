"""Dataset substrate: the six evaluated agricultural data sources.

The paper's datasets (Table 2) are public downloads plus one private
ground-vehicle camera feed (CRSA); none are bundled here.  Instead this
package generates *synthetic equivalents that preserve the statistics the
characterization consumes*: sample counts, class counts, the image-size
distributions of Fig. 4, encoding formats (the TIFF-vs-JPEG difference
behind the PyTorch preprocessing variance), and the CRSA feed's raw
3840×2160 frames needing perspective correction.
"""

from repro.data.distributions import (
    ImageSizeDistribution,
    FixedSize,
    VariableSize,
    density_grid,
)
from repro.data.datasets import (
    DatasetSpec,
    ImageFormat,
    DATASETS,
    get_dataset,
    list_datasets,
    table2_rows,
)
from repro.data.synthetic import (
    synth_image,
    synth_crsa_frame,
    SyntheticSampler,
)
from repro.data.encoding import (
    encoded_bytes,
)
from repro.data.loader import DataLoader, Sample

__all__ = [
    "ImageSizeDistribution",
    "FixedSize",
    "VariableSize",
    "density_grid",
    "DatasetSpec",
    "ImageFormat",
    "DATASETS",
    "get_dataset",
    "list_datasets",
    "table2_rows",
    "synth_image",
    "synth_crsa_frame",
    "SyntheticSampler",
    "encoded_bytes",
    "DataLoader",
    "Sample",
]
