"""orbitlab: a numerical laboratory for reductive group actions.

Decides orbit closedness via minimal vectors and a norm-minimizing
flow, analyzes stabilizer subalgebras for reductivity, and packages the
statements about generic closedness and reductivity of stabilizer
intersections into reproducible randomized experiments, together with
one exactly reproduced counterexample where genericity fails.
"""

from .errors import (ConfigurationError, InvalidArgumentError,
                     NotBracketClosedError, NotThetaStableError,
                     OrbitLabError)
from .groups import (CartanDecomposition, GroupSpec, LieAlgebraBasis,
                     block_embedding, bracket_closure_residual,
                     cartan_decompose, cartan_decomposition_for,
                     diagonal_embedding, lie_algebra_basis, product,
                     random_group_element, special_linear,
                     special_orthogonal, standard_symplectic_form,
                     symplectic, torus)
from .reps import (Representation, act, alt_bilinear, defining,
                   differential_act, direct_sum, external_tensor,
                   inner_product, orbit_dimension_info, random_vector,
                   stabilizer_subalgebra, sym2)
from .kempfness import (ClosednessVerdict, FlowConfig, FlowTrace,
                        closedness_verdict, norm_flow, relative_moment_norm)
from .subalgebra import (StructureData, SubalgebraReport, element_type,
                         reductivity_verdict, structure_report)
from .experiments import (ExperimentConfig, ExperimentReport, Scenario,
                          get_scenario, run_experiment, scenario_catalog)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "InvalidArgumentError", "NotBracketClosedError",
    "NotThetaStableError", "OrbitLabError",
    "CartanDecomposition", "GroupSpec", "LieAlgebraBasis",
    "block_embedding", "bracket_closure_residual", "cartan_decompose",
    "cartan_decomposition_for", "diagonal_embedding", "lie_algebra_basis",
    "product", "random_group_element", "special_linear",
    "special_orthogonal", "standard_symplectic_form", "symplectic", "torus",
    "Representation", "act", "alt_bilinear", "defining", "differential_act",
    "direct_sum", "external_tensor", "inner_product", "orbit_dimension_info",
    "random_vector", "stabilizer_subalgebra", "sym2",
    "ClosednessVerdict", "FlowConfig", "FlowTrace", "closedness_verdict",
    "norm_flow", "relative_moment_norm",
    "StructureData", "SubalgebraReport", "element_type",
    "reductivity_verdict", "structure_report",
    "ExperimentConfig", "ExperimentReport", "Scenario", "get_scenario",
    "run_experiment", "scenario_catalog",
]
