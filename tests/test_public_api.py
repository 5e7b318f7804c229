"""The public surface is pinned, so a change to it has to be deliberate."""

import capscale

PUBLIC = """
    BranchSupremum CapacityReport MemoryChannel NumericalError OptResult QubitChannel
    RandomScaleReport ScaleEntry SimResult StaircaseRow Strategy SubsetScale ValidationError
    __version__ apply_memory_channel_n binary_entropy brute_force_ensemble_search
    chi_ad_mirror chi_mirror_family compute_capacity_report compute_random_scale_report
    dchi_da_ad empirical_staircase find_root_bisection kraus_operators maximize_chi_sum
    maximize_concave_1d per_branch_suprema run_trials scale_r subset_scale_value success_oracle
""".split()


def test_public_surface():
    assert sorted(capscale.__all__) == PUBLIC
    assert len(set(capscale.__all__)) == len(capscale.__all__) == 32
    for name in capscale.__all__:
        getattr(capscale, name)  # every name resolves
