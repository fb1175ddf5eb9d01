"""Synthetic datasets simulating the paper's eight benchmark datasets."""

from .anomalies import ANOMALY_TYPES, AnomalySpec, InjectionContext, inject_anomaly
from .faults import (
    FaultModel,
    inject_duplicates,
    inject_missing_at_random,
    inject_sensor_dropout,
    inject_sensor_flapping,
    inject_stuck_at,
)
from .generator import GeneratedSeries, NetworkConfig, SensorNetworkSimulator
from .io import export_csv, import_csv, load_dataset_file, save_dataset
from .registry import (
    Dataset,
    DatasetSpec,
    N_SMD_SUBSETS,
    build_dataset,
    dataset_names,
    get_spec,
    load_dataset,
    smd_subset_names,
)

__all__ = [
    "AnomalySpec",
    "ANOMALY_TYPES",
    "InjectionContext",
    "inject_anomaly",
    "FaultModel",
    "inject_missing_at_random",
    "inject_sensor_dropout",
    "inject_stuck_at",
    "inject_duplicates",
    "inject_sensor_flapping",
    "NetworkConfig",
    "SensorNetworkSimulator",
    "GeneratedSeries",
    "Dataset",
    "DatasetSpec",
    "N_SMD_SUBSETS",
    "dataset_names",
    "smd_subset_names",
    "get_spec",
    "build_dataset",
    "load_dataset",
    "save_dataset",
    "load_dataset_file",
    "export_csv",
    "import_csv",
]
