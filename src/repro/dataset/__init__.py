"""Dataset pipeline: observations, likely-served inference, labeling,
balancing, and the paper's three holdout strategies."""

from repro.dataset.balance import balance_dataset
from repro.dataset.labeling import (
    LabelingInputs,
    build_labelled_dataset,
    label_from_challenges,
    label_from_changes,
)
from repro.dataset.likely_served import (
    MAX_GEOLOCATION_RADIUS_M,
    MLabHits,
    MLabLocalization,
    attribute_mlab_tests,
    likely_served_claims,
    localize_mlab_tests,
    service_coverage_scores,
)
from repro.dataset.observations import (
    LabelledDataset,
    LabelSource,
    Observation,
    ObservationColumns,
    observation_columns,
)
from repro.dataset.splits import (
    PAPER_HOLDOUT_STATES,
    Split,
    fcc_adjudicated_split,
    random_observation_split,
    state_holdout_split,
    train_validation_split,
)

__all__ = [
    "balance_dataset",
    "LabelingInputs",
    "build_labelled_dataset",
    "label_from_challenges",
    "label_from_changes",
    "MAX_GEOLOCATION_RADIUS_M",
    "MLabHits",
    "MLabLocalization",
    "attribute_mlab_tests",
    "likely_served_claims",
    "localize_mlab_tests",
    "service_coverage_scores",
    "LabelledDataset",
    "LabelSource",
    "Observation",
    "ObservationColumns",
    "observation_columns",
    "PAPER_HOLDOUT_STATES",
    "Split",
    "fcc_adjudicated_split",
    "random_observation_split",
    "state_holdout_split",
    "train_validation_split",
]
