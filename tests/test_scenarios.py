import json
import math

import numpy as np
import pytest

from nlspsa_ik.errors import ScenarioFormatError, ScenarioLookupError
from nlspsa_ik.kinematics import ChainModel, Pose, forward_kinematics
from nlspsa_ik.objective import ObjectiveSpec
from nlspsa_ik.scenarios import (
    Scenario,
    builtin,
    builtin_ids,
    load_scenario,
    save_scenario,
)
from oracle import combined_loss

ALL_IDS = ("1.1", "1.2", "1.3", "1.4", "1.5", "1.6", "1.7", "1.8", "2.1", "2.2", "2.3")


class TestBuiltins:
    def test_all_ids_present(self):
        assert builtin_ids() == ALL_IDS

    @pytest.mark.parametrize("sid", ALL_IDS)
    def test_self_consistency(self, sid):
        s = builtin(sid)
        pose = forward_kinematics(s.chain, s.spec.reference)
        assert np.abs(pose.as_array() - s.expected_initial_pose.as_array()).max() <= 1e-9
        loss = combined_loss(s.spec, s.chain, s.spec.reference)
        assert abs(loss - s.expected_initial_loss) <= 5e-5

    def test_known_data_for_first_scenario(self):
        s = builtin("1.1")
        assert np.array_equal(s.spec.reference, [0, 0, 0, 0, 90, 0, 0, 90])
        assert s.spec.target == Pose(4.0, 3.0, 180.0)
        assert s.expected_initial_loss == 0.1401
        assert s.chain.n == 8

    def test_near_reach_target(self):
        s = builtin("2.2")
        assert s.spec.target == Pose(0.0, 19.0, 90.0)
        assert s.expected_initial_loss == 20.3081
        assert math.hypot(s.spec.target.x, s.spec.target.y) <= s.chain.reach

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(ScenarioLookupError) as excinfo:
            builtin("9.9")
        assert "9.9" in str(excinfo.value)
        for sid in ALL_IDS:
            assert sid in str(excinfo.value)

    def test_repeated_calls_equal(self):
        assert builtin("1.6") == builtin("1.6")
        assert builtin("1.5") != builtin("1.6")

    def test_tampered_expectation_rejected(self):
        s = builtin("1.1")
        with pytest.raises(ScenarioFormatError):
            Scenario(
                id=s.id,
                chain=s.chain,
                spec=s.spec,
                expected_initial_pose=Pose(99.0, 3.0, 180.0),
                expected_initial_loss=s.expected_initial_loss,
            )

    def test_tampered_initial_loss_rejected(self):
        s = builtin("1.1")
        with pytest.raises(ScenarioFormatError, match="initial loss 0.140"):
            Scenario(
                id=s.id,
                chain=s.chain,
                spec=s.spec,
                expected_initial_pose=s.expected_initial_pose,
                expected_initial_loss=s.expected_initial_loss + 1e-4,
            )


class TestScenarioFiles:
    @pytest.mark.parametrize("sid", ["1.1", "1.6", "2.3"])
    def test_round_trip_builtin(self, sid, tmp_path):
        original = builtin(sid)
        path = tmp_path / f"{sid}.json"
        save_scenario(original, path)
        assert load_scenario(path) == original

    def test_round_trip_full_matrices_and_limits(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3))
        chain = ChainModel((1.0, 2.0, 1.5), joint_limits=((-90, -90, -90), (90, 90, 90)))
        q0 = np.array([10.0, 20.0, -5.0])
        spec = ObjectiveSpec(
            target=Pose(2.0, 2.0, 25.0),
            reference=q0,
            r_ee=m @ m.T + 3 * np.eye(3),
            q_jmc=np.eye(3) + 0.2,
        )
        s = Scenario(
            id="custom",
            chain=chain,
            spec=spec,
            expected_initial_pose=forward_kinematics(chain, q0),
            expected_initial_loss=combined_loss(spec, chain, q0),
        )
        path = tmp_path / "custom.json"
        save_scenario(s, path)
        doc = json.loads(path.read_text())
        assert "r_ee" in doc and "r_ee_diag" not in doc
        assert "q_jmc" in doc and "q_jmc_diag" not in doc
        assert doc["joint_limits"]["q_min"] == [-90, -90, -90]
        assert load_scenario(path) == s

    def test_load_without_expectations_computes_them(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({
            "id": "bare",
            "link_lengths": [1.0, 1.0],
            "q0_deg": [0.0, 90.0],
            "target": {"x": 1.5, "y": 0.5, "theta_deg": 45.0},
            "r_ee_diag": [1.0, 1.0, 0.001],
            "q_jmc_diag": [0.1, 0.1],
            "w_jmc": 1.0,
            "w_ee": 50.0,
        }))
        s = load_scenario(path)
        assert s.expected_initial_pose == forward_kinematics(s.chain, s.spec.reference)
        assert s.reported_final_loss is None

    def test_zero_motion_weight_entry_rejected(self, tmp_path):
        s = builtin("1.1")
        path = tmp_path / "bad.json"
        save_scenario(s, path)
        doc = json.loads(path.read_text())
        doc["q_jmc_diag"][2] = 0.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="positive-definite"):
            load_scenario(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        s = builtin("1.1")
        path = tmp_path / "bad.json"
        save_scenario(s, path)
        doc = json.loads(path.read_text())
        doc["link_lengths"] = [1.0] * 20  # q0 still has 8 entries
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError):
            load_scenario(path)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"id": "x",\n  "link_lengths": [1.0,]\n}')
        with pytest.raises(ScenarioFormatError, match="line"):
            load_scenario(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"id": "x", "link_lengths": [1.0]}))
        with pytest.raises(ScenarioFormatError, match="q0_deg"):
            load_scenario(path)

    def test_both_matrix_forms_rejected(self, tmp_path):
        s = builtin("1.1")
        path = tmp_path / "dup.json"
        save_scenario(s, path)
        doc = json.loads(path.read_text())
        doc["q_jmc"] = [[1.0] * 8] * 8
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="not both"):
            load_scenario(path)

    @pytest.mark.parametrize("field", ["expected_initial_loss", "reported_final_loss"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_loss_rejected(self, tmp_path, field, value):
        path = tmp_path / "loss.json"
        save_scenario(builtin("1.1"), path)
        doc = json.loads(path.read_text())
        doc[field] = value  # json writes NaN and Infinity, and reads them
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match=f"{field} is {value}"):
            load_scenario(path)

    def test_bad_theta_rejected(self, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({
            "id": "x",
            "link_lengths": [1.0],
            "q0_deg": [0.0],
            "target": {"x": 1.0, "y": 0.0, "theta_deg": 720.0},
            "r_ee_diag": [1, 1, 1],
            "q_jmc_diag": [1],
            "w_jmc": 1,
            "w_ee": 50,
        }))
        with pytest.raises(ScenarioFormatError):
            load_scenario(path)
