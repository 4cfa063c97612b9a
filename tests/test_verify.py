from dataclasses import replace

from hypothesis import given, settings

from hetdata import threshold, verify
from domain import validated_params


class TestHazardCheckMemo:
    def test_hit_equals_a_fresh_evaluation(self):
        first = verify.check_hazard_and_output_ratio()
        assert verify.check_hazard_and_output_ratio() is first
        assert first == verify.check_hazard_and_output_ratio.__wrapped__()
        assert first.passed

    def test_to_dict_hands_out_a_copy_of_detail(self):
        record = verify.check_hazard_and_output_ratio().to_dict()
        record["detail"]["grid_points"] = -1
        record["detail"]["extra"] = True
        fresh = verify.check_hazard_and_output_ratio().to_dict()
        assert fresh["detail"] == {"grid_points": 801}


# criterion 2 on the whole census box that verify draws its sets from,
# both gamma branches
@given(validated_params())
@settings(max_examples=50, deadline=None)
def test_indifference_holds_on_the_box(params):
    for p in (params, replace(params, gamma=1.0)):
        sol = threshold.solve_threshold(p.tau, p)
        level, log_ce = verify.indifference_gaps(sol, p)
        assert level <= verify._LEVEL_TOL and log_ce <= verify._LOG_CE_TOL
