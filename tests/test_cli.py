import json
import math
from pathlib import Path

import numpy as np
import pytest

from swarmdraw.cli import load_pattern, main
from swarmdraw.protocol import build_plan

from corpus import near_gathering, ngon, random_connected_pattern


def write_pattern(path: Path, points) -> str:
    path.write_text(json.dumps({"points": np.asarray(points).tolist()}))
    return str(path)


@pytest.fixture()
def pattern_file(tmp_path):
    return write_pattern(tmp_path / "pattern.json", random_connected_pattern(8, seed=3))


def test_analyze_main_branch(pattern_file, capsys):
    assert main(["analyze", pattern_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["branch"] == "main" and report["n"] == 8
    assert report["connected"] is True
    assert "params" in report


def test_analyze_star_branch_square(tmp_path, capsys):
    # A plain square: symmetricity 4 >= n/2, handled by the scaling branch.
    f = write_pattern(tmp_path / "square.json", [[0.5, 0], [0, 0.5], [-0.5, 0], [0, -0.5]])
    assert main(["analyze", f]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sym"] == 4 and report["branch"] == "star"


def test_analyze_disconnected_exit_code(tmp_path, capsys):
    f = write_pattern(tmp_path / "gap.json", [[0, 0], [0.5, 0], [5.0, 0], [5.5, 0]])
    assert main(["analyze", f]) == 3
    assert "not connected" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["plan", "--out", "plan.json"], ["simulate"]])
def test_planning_commands_exit_3_on_a_disconnected_pattern(tmp_path, monkeypatch, capsys,
                                                           command):
    monkeypatch.chdir(tmp_path)
    f = write_pattern(tmp_path / "gap.json", [[0, 0], [5, 0]])
    assert main([command[0], f, *command[1:]]) == 3
    assert capsys.readouterr().err == "error: pattern is not connected in the unit disc graph\n"
    assert not (tmp_path / "plan.json").exists()


def test_analyze_invalid_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert main(["analyze", str(f)]) == 2


def test_analyze_duplicate_points(tmp_path):
    f = write_pattern(tmp_path / "dup.json", [[0, 0], [0, 0], [1, 0]])
    assert main(["analyze", f]) == 2


@pytest.mark.parametrize("text", ["[[0, 0], [1, 0]]", '{"points": [{"x": 0}, {"x": 1}]}'],
                         ids=["top-level-list", "point-objects"])
def test_analyze_pattern_not_an_object(tmp_path, capsys, text):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["analyze", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_plan_export(pattern_file, tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main(["plan", pattern_file, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert {"pattern", "vertices", "coverage", "tail_start", "labels"} <= set(data)


def test_simulate_formed_and_trace(pattern_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code = main(["simulate", pattern_file, "--trace", str(trace), "--max-rounds", "200"])
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["verdict"] == "formed"
    assert trace.exists()


def test_simulate_noisy_run_formed(pattern_file, capsys):
    plan = build_plan(load_pattern(pattern_file))
    mu = plan.grid.epsilon / (20 * plan.hops)   # below epsilon/(10*hops)
    code = main(["simulate", pattern_file, "--noise-mu", repr(mu),
                 "--max-rounds", str(plan.hops + 6)])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert out["verdict"] == "formed"


def test_simulate_timeout_exit_code(pattern_file, capsys):
    assert main(["simulate", pattern_file, "--max-rounds", "1"]) == 1


def test_simulate_seed_invariance(pattern_file, capsys):
    results = []
    for seed in ("11", "42"):
        main(["simulate", pattern_file, "--seed", seed, "--max-rounds", "200"])
        results.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
    assert results[0]["verdict"] == results[1]["verdict"] == "formed"
    assert results[0]["rounds"] == results[1]["rounds"]


def test_simulate_aborted_exit_code(pattern_file, robot_0_out_of_range, capsys):
    assert main(["simulate", pattern_file, "--max-rounds", "20"]) == 4
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["verdict"] == "aborted"


def test_simulate_from_near_gathering(pattern_file, tmp_path, capsys):
    ng = write_pattern(tmp_path / "start.json", near_gathering(8, seed=2))
    assert main(["simulate", pattern_file, "--from", ng, "--max-rounds", "200"]) == 0


def test_simulate_from_wrong_size(pattern_file, tmp_path, capsys):
    start = write_pattern(tmp_path / "start.json", near_gathering(7, seed=2))
    assert main(["simulate", pattern_file, "--from", start]) == 2
    assert capsys.readouterr().err.startswith("error: 7 robots cannot form a pattern of 8")


def test_simulate_from_not_an_object(pattern_file, tmp_path, capsys):
    start = tmp_path / "start.json"
    start.write_text(json.dumps(near_gathering(8, seed=2).tolist()))
    assert main(["simulate", pattern_file, "--from", str(start)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_rejects_spread_start(pattern_file, tmp_path, capsys):
    bad = write_pattern(tmp_path / "spread.json", random_connected_pattern(8, seed=4) * 2)
    assert main(["simulate", pattern_file, "--from", bad]) == 2
    assert "near-gathering" in capsys.readouterr().err


def test_simulate_rejects_incompatible_symmetry(tmp_path, capsys):
    # Four connected arms: symmetricity 4.  A regular 12-gon start has
    # symmetricity 12, which does not divide 4.
    arms = []
    for k in range(4):
        ang = k * math.pi / 2
        for r in (0.7, 1.55, 2.4):
            arms.append([r * math.cos(ang), r * math.sin(ang)])
    target = write_pattern(tmp_path / "t.json", arms)
    start = write_pattern(tmp_path / "s.json", ngon(12, 0.4))
    code = main(["simulate", target, "--from", start])
    assert code == 2
    assert "symmetricity" in capsys.readouterr().err


def test_render_frames(pattern_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    main(["simulate", pattern_file, "--trace", str(trace), "--max-rounds", "200"])
    capsys.readouterr()
    outdir = tmp_path / "frames"
    assert main(["render", str(trace), "--out", str(outdir), "--every", "5"]) == 0
    frames = sorted(outdir.glob("*.svg"))
    with open(trace) as fh:
        rounds = sum(1 for line in fh) - 1
    expected = len(range(0, rounds, 5)) + (0 if (rounds - 1) % 5 == 0 else 1)
    assert len(frames) == expected
    assert frames[0].read_text().startswith("<svg")


def test_render_sampling_rule(tmp_path):
    # 10 rounds, every 5 -> rounds 0, 5, and the final round 9.
    trace = tmp_path / "t.jsonl"
    with open(trace, "w") as fh:
        for r in range(10):
            fh.write(json.dumps({"round": r, "positions": [[0, 0]], "phases": ["dropped"],
                                 "events": []}) + "\n")
        fh.write(json.dumps({"verdict": "timeout", "rounds": 10, "max_error": None,
                             "alignment": None, "pattern": [[0, 0]]}) + "\n")
    outdir = tmp_path / "frames"
    assert main(["render", str(trace), "--out", str(outdir), "--every", "5"]) == 0
    names = sorted(p.name for p in outdir.glob("*.svg"))
    assert names == ["round_00000.svg", "round_00005.svg", "round_00009.svg"]


def test_render_deterministic_bytes(pattern_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    main(["simulate", pattern_file, "--trace", str(trace), "--max-rounds", "200"])
    out1 = tmp_path / "frames1"
    out2 = tmp_path / "frames2"
    main(["render", str(trace), "--out", str(out1), "--every", "3"])
    main(["render", str(trace), "--out", str(out2), "--every", "3"])
    for f1 in sorted(out1.glob("*.svg")):
        f2 = out2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_render_unreadable_trace(tmp_path):
    missing = tmp_path / "nope.jsonl"
    assert main(["render", str(missing), "--out", str(tmp_path / "f")]) == 2


def test_render_malformed_round_record(tmp_path, capsys):
    trace = tmp_path / "bad.jsonl"
    trace.write_text('{"round": 0}\n{"verdict": "formed"}\n')
    assert main(["render", str(trace), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("record, final", [
    ({"round": 0, "positions": [[1]]}, {}),
    ({"round": 0, "positions": [[0, 0]]}, {"pattern": [[0]]}),
    ({"round": "x", "positions": [[0, 0]]}, {}),
    ({"round": 0, "positions": [[0, None]]}, {}),
    ({"round": 0, "positions": [[0, 0]]}, {"path_vertices": [[0, 0, 0]]}),
], ids=["short-position", "short-pattern-point", "round-not-int", "null-coordinate",
        "long-path-vertex"])
def test_render_malformed_trace_contents(tmp_path, capsys, record, final):
    trace = tmp_path / "bad.jsonl"
    trace.write_text(json.dumps(record) + "\n" + json.dumps({"verdict": "formed", **final}) + "\n")
    assert main(["render", str(trace), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list((tmp_path / "f").glob("*.svg"))


def test_env_seed_default(pattern_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SWARMDRAW_SEED", "777")
    assert main(["simulate", pattern_file, "--max-rounds", "200"]) == 0


def test_env_seed_not_an_integer(pattern_file, monkeypatch, capsys):
    monkeypatch.setenv("SWARMDRAW_SEED", "abc")
    assert main(["analyze", pattern_file]) == 2
    assert capsys.readouterr().err.startswith("error: SWARMDRAW_SEED")


def test_simulate_noise_above_bound_exit_code(pattern_file, capsys):
    assert main(["simulate", pattern_file, "--noise-mu", "0.5"]) == 2
    assert "noise_mu" in capsys.readouterr().err


def test_simulate_negative_noise_exit_code(pattern_file, capsys):
    assert main(["simulate", pattern_file, "--noise-mu", "-0.1"]) == 2
    assert "noise_mu" in capsys.readouterr().err


def test_simulate_negative_max_rounds_exit_code(pattern_file, capsys):
    assert main(["simulate", pattern_file, "--max-rounds", "-1"]) == 2
    assert "max_rounds" in capsys.readouterr().err


def test_simulate_star_noise_exit_code(tmp_path, capsys):
    f = write_pattern(tmp_path / "octagon.json", ngon(8, 0.6))
    assert main(["simulate", f, "--noise-mu", "1e-4", "--max-rounds", "20"]) == 2
    assert "scaling branch has no noise model" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze"], ["plan", "--out", "plan.json"], ["simulate"]])
def test_params_c_zero_exit_code(pattern_file, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main([command[0], pattern_file, *command[1:], "--params-c", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: c must be a positive finite number")
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("c", ["-1", "nan", "0"])
def test_analyze_checks_params_c_on_the_scaling_branch(tmp_path, capsys, c):
    f = write_pattern(tmp_path / "square.json", [[0.5, 0], [0, 0.5], [-0.5, 0], [0, -0.5]])
    assert main(["analyze", f, "--params-c", c]) == 2
    assert capsys.readouterr().err.startswith("error: c must be a positive finite number")


def test_render_every_zero_rejected(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps({"verdict": "timeout", "rounds": 0}) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["render", str(trace), "--out", str(tmp_path / "f"), "--every", "0"])
    assert exc.value.code == 2


def files_under(path: Path) -> list[Path]:
    return sorted(p for p in path.rglob("*") if p.is_file())


def test_analyze_points_merged_by_normalisation(tmp_path, capsys):
    # Distinct as given, but translating the SEC centre to the origin rounds
    # 0 and 0.5 to the same float next to 1e17.
    f = write_pattern(tmp_path / "far.json", [[0, 0], [0.5, 0], [1e17, 0]])
    assert main(["analyze", f]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_trace_in_missing_directory(pattern_file, tmp_path, monkeypatch, capsys):
    """An unwritable --trace is reported before the run, not after it."""
    def no_run(*args):
        raise AssertionError("the run started before the trace path was checked")

    monkeypatch.setattr("swarmdraw.cli.run_fsync", no_run)
    trace = tmp_path / "missing" / "t.jsonl"
    assert main(["simulate", pattern_file, "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_plan_out_in_missing_directory(pattern_file, tmp_path, capsys):
    before = files_under(tmp_path)
    assert main(["plan", pattern_file, "--out", str(tmp_path / "missing" / "p.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert files_under(tmp_path) == before


def test_render_out_under_a_regular_file(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps({"round": 0, "positions": [[0, 0]]}) + "\n"
                     + json.dumps({"verdict": "timeout", "rounds": 1}) + "\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    before = files_under(tmp_path)
    assert main(["render", str(trace), "--out", str(blocker / "frames")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert files_under(tmp_path) == before
