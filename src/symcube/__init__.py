"""Cross-checks for GL(2) symmetric-cube and adjoint-cube local factors,
their dihedral factorizations, and the rank-two constant-term calculus."""

__version__ = "0.1.0"


class SymcubeInputError(ValueError):
    """A coefficient or Hecke file that the parsers in `ingest` reject."""


# Every export is resolved on first use (PEP 562), so `import symcube` loads
# no submodule and each CLI command pays only for the modules it runs.
_LAZY = {
    "g2root": ("Affine", "RootVector", "WeightVector", "WeylElement",
               "POSITIVE_ROOTS", "coroot_decomposition", "gram", "inverted_roots",
               "lambda_weight", "pairing", "pairing_table", "reflect",
               "rho_parabolic", "weyl_group"),
    "cyclo": ("Cyclo",),
    "satake": ("LocalRepClass", "SatakeClass", "complementary_params",
               "contragredient", "is_tempered", "satake_from_hecke", "twist"),
    "localfactor": ("RepTag", "ReciprocalPoly", "check_gj_identity",
                    "check_triple_identity", "check_twist_identity",
                    "local_factor", "rankin_selberg", "triple_product"),
    "monomial": ("HeckeLocalData", "adjointcube_char_poly", "check_monomial_r3",
                 "check_monomial_r30", "hecke_factor", "induced_local",
                 "pole_criterion", "symcube_char_poly"),
    "intertwining": ("PrincipalParams", "UnitarityCase",
                     "forbidden_triangle_contains", "gk_coefficient",
                     "gk_pole_set", "l_ratio", "langlands_quotient_unitary",
                     "principal_series_pole_set", "region_grid",
                     "region_membership", "torus_character_value"),
    "analytic": ("AFEConfig", "CoefficientTable", "afe_value", "afe_values",
                 "delta_sym3_config", "dirichlet_coeffs", "dirichlet_sum",
                 "epsilon_probe", "inject_pole_factor", "partial_L", "pole_scan"),
    "ingest": ("ParsedForm", "ParsedHeckeData", "delta_form", "eta24_qexpansion",
               "parse_afe_config", "parse_form", "parse_hecke", "satake_table"),
}
_LAZY_SOURCE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
