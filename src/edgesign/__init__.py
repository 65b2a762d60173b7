"""Edge sign prediction in signed directed social networks.

Library layout:

* :mod:`edgesign.graph` — signed digraph container, ingestion, splits
* :mod:`edgesign.features` — trollness/trustworthiness, regularity measures
* :mod:`edgesign.genmodel` — generative label model, priors, oracle rule
* :mod:`edgesign.batch` — batch predictors (blc, logreg, lprop, unreg)
* :mod:`edgesign.online` — sequential predictor and lower-bound adversary
* :mod:`edgesign.metrics` — confusion counts, MCC, accuracy
* :mod:`edgesign.harness` — sweeps, repetitions, reports
* :mod:`edgesign.cli` — command-line frontend
"""

from .graph import EdgeSplit, SignedDigraph, degree_stats, load_edge_list, sample_split
from .features import EdgeFit, RegularityReport, psi2, psi_g, regularity_report, troll_trust
from .genmodel import (BetaPrior, GenParams, TwoPointPrior, UniformPrior, eq1_rates,
                       make_synthetic, sample_labels, sample_params)
from .batch import (METHODS, BlcModel, LogRegModel, LpModel, LpOptions, Prediction,
                    UnregModel, UnregOptions, blc_fit, blc_predict_split, logreg_fit,
                    logreg_predict_split, lp_predict, lp_run, tune_threshold,
                    unreg_predict, unreg_solve)
from .online import (AdversarySequence, OnlineReport, OnlineState,
                     adversary_expected_mistakes, adversary_generate, mistake_bound,
                     online_init, online_predict, online_update, run_online)
from .metrics import ConfusionCounts, accuracy, confusion, mcc
from .harness import ExperimentReport, ExperimentSpec, SyntheticSpec, run_experiment

__version__ = "0.1.0"
