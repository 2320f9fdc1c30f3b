"""Graph matching under explicit quadratic structural constraints."""

from .errors import InvalidInputError, NumericalFailureError
from .graphs import (GraphPair, KeypointSet, assemble_attributes, build_graph,
                     delaunay_adjacency, linear_kernel, load_dataset, load_pair,
                     make_pair, normalize_coordinates, save_dataset, save_pair,
                     weighted_adjacency)
from .losses import (LossConfig, accuracy, cross_entropy_loss, f1_score,
                     false_matching_loss, matrix_to_permutation, permutation_to_matrix)
from .projections import SinkhornResult, hungarian, sinkhorn
from .qap import (QapInstance, SolveTrace, frank_wolfe_infer, frank_wolfe_train,
                  fw_direction, fw_step_size, objective, objective_gradient)
from .refine import (ParameterSet, gcn_layer, init_assignment, init_parameters,
                     load_parameters, node_affinity, refine_pipeline, save_parameters)
from .synth import SynthConfig, gen_dataset, gen_synthetic_pair, inject_outliers
# ``train`` the function stays in its module so ``quadmatch.train`` names the module
from .train import TrainConfig, TrainHistory, forward, grad_params, sgd_step
from .bench import ExperimentReport, match_pair, outlier_sweep, run_benchmark

__version__ = "0.1.0"
