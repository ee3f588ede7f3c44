"""Numerical workbench for noncommutative Dirichlet forms, Markov generators
and dissipative dynamics on truncated bosonic lattice Fock spaces."""

from .fock import (LatticeConfig, LatticeOperator, TruncationReport,
                   build_mode_ops, clean_projector, commutator, embed,
                   identity_operator, mollify, site_operator,
                   total_sector_projector)
from .state import (GibbsState, KmsMetric, decompose_modular, gibbs_state,
                    lp_norm, modular_flow, modular_flows)
from .kernels import AdmissibleKernel, admissibility_report
from .dirichlet import (DerivationDirection, Superoperator,
                        adjoint_derivation_super, assemble_generator,
                        derivation_super, dirichlet_energy, gamma1,
                        gamma1_closed_form, gamma1_contour_form,
                        generator_kernel, semigroup_apply, vec, unvec)
from .models import (AlgebraReport, BuiltModel, ModelSpec, ModularOrbit,
                     build_model, mean_field_n_coefficients, modular_orbit,
                     verify_algebra)
from .bogolubov import (BogolubovParams, LadderPolynomial, bogolubov_pair,
                        minkowski_field, number_polynomial,
                        quasi_invariance_rep)
from .analysis import (GapReport, HeatReport, LRReport, ScalingReport,
                       graph_laplacian, heat_comparison, lieb_robinson_probe,
                       polynomial_decay_probe, rayleigh_scaling,
                       spectral_gap)

__version__ = "0.1.0"
