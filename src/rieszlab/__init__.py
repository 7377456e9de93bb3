"""rieszlab: regularized Riesz, Kusner-Sullivan and Auckly-Sadun energies.

Numerical library for Hadamard-regularized Riesz energies of closed curves
and surfaces in R^n, Moebius-invariant surface energies, and a degeneration
laboratory that measures blow-up laws near double points.
"""

from .errors import (ConfigError, NumericalError, PatchRadiusError, PoleError,
                     PreconditionError, ProfileFitError, RieszLabError,
                     SingularMapError, SingularPairError, TopologyError,
                     UnsupportedInputError)
from .flow import (ContactReport, EnergySelector, FlowState, contact_monitor,
                   energy_gradient, flow_step, ks_flow_energy, run_flow,
                   write_trajectory_csv)
from .geometry import (ChartSurface, CurvatureData, GraphPatch,
                       PatchClassParams, PatchStack, TriMesh, curvature_at,
                       default_patch_radius, euler_characteristic,
                       graph_patch_at, icosphere, make_circle,
                       make_cylinder_patch, make_disjoint_union, make_disk,
                       make_ellipsoid, make_saddle_surface, make_sphere,
                       make_torus, mesh_disjoint_union, polygon_circle,
                       read_obj, read_off, tangent_frame, torus_mesh,
                       validate_patch_class, write_obj, write_off)
from .models import (CutoffFit, classify_cutoff_law, cone_model_scan,
                     lambda_bound, lambda_bound_sum, orthogonal_model_closed_form,
                     orthogonal_model_integral, sphere_pair_cross_energy,
                     tangent_model_scan, two_body_sweep)
from .moebius import (InvarianceReport, MoebiusMap, apply_moebius, as_energy,
                      combined_angle_cos, combined_angle_cos_frames,
                      ks_cross_energy, ks_energy, moebius_invariance_check)
from .radial import (EnergyParams, FinitePartResult, ProfileStack,
                     finite_part, radial_profile)
from .riesz import (EnergyReport, QuadratureConfig, beta_oracle, beta_residue,
                    finite_part_at_pole, riesz_energy, scaling_check)

__version__ = "0.1.0"
