from hetdata import verify


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
