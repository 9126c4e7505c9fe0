"""Groupwise image registration with singular-value stack distance measures.

The package aligns a stack of K images simultaneously by minimizing a
spectral measure of the feature correlation between all warped images plus
a smoothness penalty on the displacement fields, with a sequential pairwise
mode as the baseline.  Entry points:

- :func:`multilevel_solve` runs the coarse-to-fine registration.
- :class:`ObjectiveSpec` / :class:`SolveOptions` configure it.
- :func:`synth_stack` builds synthetic stacks with ground-truth fields.
- :mod:`sqnreg.fileio` reads and writes PGM images, displacement fields,
  run configs, and metrics tables; ``sqnreg.cli`` is the command line.
"""

from sqnreg.errors import (
    ConfigError,
    FeatureError,
    FormatError,
    GridError,
    MeasureError,
    OptimError,
    RegularizerError,
    SpectralError,
    SqnregError,
)
from sqnreg.features import (
    FeatureMatrix,
    IntensityFeature,
    NgfFeature,
    assemble,
    feature_columns,
    resolve_feature,
)
from sqnreg.fileio import (
    RunConfig,
    StackManifest,
    load_config,
    load_field,
    load_manifest,
    load_metrics_csv,
    load_pgm,
    load_stack,
    metrics_csv,
    save_field,
    save_pgm,
)
from sqnreg.grids import (
    DisplacementField,
    GridSpec,
    Image,
    ImageStack,
    zero_field,
)
from sqnreg.measures import (
    CorrDev,
    LogDet,
    NgfPair,
    SchattenQ,
    SsdPair,
    measure_eval,
    resolve_measure,
)
from sqnreg.optimize import (
    IterRecord,
    LevelTrace,
    ObjectiveSpec,
    SolveOptions,
    SolveReport,
    build_pyramid,
    multilevel_solve,
    objective,
)
from sqnreg.regularize import Diffusion, Elastic, reg_eval
from sqnreg.spectral import thin_svd
from sqnreg.synth import cut_view, synth_stack

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "FeatureError",
    "FormatError",
    "GridError",
    "MeasureError",
    "OptimError",
    "RegularizerError",
    "SpectralError",
    "SqnregError",
    "FeatureMatrix",
    "IntensityFeature",
    "NgfFeature",
    "assemble",
    "feature_columns",
    "resolve_feature",
    "RunConfig",
    "StackManifest",
    "load_config",
    "load_field",
    "load_manifest",
    "load_metrics_csv",
    "load_pgm",
    "load_stack",
    "metrics_csv",
    "save_field",
    "save_pgm",
    "DisplacementField",
    "GridSpec",
    "Image",
    "ImageStack",
    "zero_field",
    "CorrDev",
    "LogDet",
    "NgfPair",
    "SchattenQ",
    "SsdPair",
    "measure_eval",
    "resolve_measure",
    "IterRecord",
    "LevelTrace",
    "ObjectiveSpec",
    "SolveOptions",
    "SolveReport",
    "build_pyramid",
    "multilevel_solve",
    "objective",
    "Diffusion",
    "Elastic",
    "reg_eval",
    "thin_svd",
    "cut_view",
    "synth_stack",
    "__version__",
]
