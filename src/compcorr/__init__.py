"""Compositional correlation analysis for time series.

Split a pair of series by an integer composition, center each part by its
own mean, pool the deviation products, and you get a correlation r_c that
sees local association plain Pearson averages away.  This package
enumerates all compositions with a minimum part length, scans pairs for
their extreme values (HCC/LCC with the attaining compositions BCC/WCC),
and mines whole datasets pair by pair.
"""
from .compositions import (
    CompositionSpec,
    composition_at,
    count_compositions,
    enumerate_compositions,
    validate_composition,
)
from .segments import ConsistencyError, SegmentTable, TimeSeries
from .corr import (
    ScanOptions,
    ScanResult,
    comp_correlation,
    comp_covariance,
    comp_std,
    comp_variance,
)
from .baselines import BaselineReport, distance_correlation, pearson, spearman
from .datasets import (
    Dataset,
    LoadReport,
    SynthSpec,
    generate,
    load_dataset,
    synth_dataset,
    write_dataset,
)
from .engine import (
    JobConfig,
    PairRecord,
    RunSummary,
    parse_filter,
    run_all_pairs,
    run_pair,
    run_pair_list,
    run_versus_time,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineReport",
    "CompositionSpec",
    "ConsistencyError",
    "Dataset",
    "JobConfig",
    "LoadReport",
    "PairRecord",
    "RunSummary",
    "ScanOptions",
    "ScanResult",
    "SegmentTable",
    "SynthSpec",
    "TimeSeries",
    "comp_correlation",
    "comp_covariance",
    "comp_std",
    "comp_variance",
    "composition_at",
    "count_compositions",
    "distance_correlation",
    "enumerate_compositions",
    "generate",
    "load_dataset",
    "parse_filter",
    "pearson",
    "run_all_pairs",
    "run_pair",
    "run_pair_list",
    "run_versus_time",
    "scan",
    "spearman",
    "synth_dataset",
    "validate_composition",
    "write_dataset",
    "__version__",
]
