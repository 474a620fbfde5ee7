"""Simulation and numerical validation toolkit for the random
connection model over stationary Poisson processes."""

from .analysis import (DifferenceSample, EvaluationContext, FunctionalSpec,
                       Standardization, birth_time_variance, cluster_tail,
                       difference, dkw_bound, empirical_distance, evaluate,
                       gamma_terms, pilot_standardization, poincare_bound,
                       second_difference)
from .census import (CensusReport, Component, ComponentTable, GraphClass,
                     canonical_form, census, edge_class,
                     enumerate_classes, path_class, single_vertex_class)
from .connection import ConnectionFunction
from .experiments import VERSION as __version__
from .experiments import (ConfigError, ExperimentResult, Scenario,
                          covariance_experiment, emit, expectation_experiment,
                          load_scenario, run_scenario,
                          total_components_experiment)
from .geometry import Window, unit_ball_volume
from .marks import PairMarkSource
from .moments import (MomentEstimate, asy_cov, asy_cov_kl,
                      asy_var_quadratic, expected_count_intensity,
                      finite_window_cov, sigma_total_partial)
from .sampling import (PointSet, RcmBatch, RcmGraph, build_coupled,
                       build_rcm, build_rcm_batch, sample_poisson)
