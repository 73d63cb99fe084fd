"""The package namespace: every name in __all__ exists, once."""

import kerrcasimir


def test_all_names_resolve():
    missing = [name for name in kerrcasimir.__all__
               if not hasattr(kerrcasimir, name)]
    assert missing == []


def test_all_has_no_duplicates():
    names = kerrcasimir.__all__
    assert len(set(names)) == len(names)


def test_all_is_pinned():
    # renaming or dropping a public name has to edit this list on purpose
    assert kerrcasimir.__all__ == [
        "C_LIGHT", "EPSILON_0", "HBAR", "K_BOLTZMANN",
        "KerrCasimirError", "ConfigError", "MaterialError",
        "UnconvergedError", "NearResonanceError",
        "reflection",
        "MaterialResponse", "LayerStack",
        "QuadratureResult", "Temperature", "integrate_semi_infinite",
        "matsubara_sum",
        "pressure_linear",
        "i_lin_zero_t", "i_lin_high_t",
        "TotalPressure",
        "pressure_nonlinear", "pressure_transparent_mirror",
        "casimir_pressure", "crossover_distance", "i_nl_zero_t",
        "i_nl_high_t",
        "Grid1D", "CheckResult",
        "build_linear", "build_n_operator", "gtilde", "naive_combination",
        "combined_correction", "rytov_residual", "noise_covariance",
        "monte_carlo_fdt", "run_verification_suite",
        "__version__",
    ]
