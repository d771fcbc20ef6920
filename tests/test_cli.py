import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CROSSING_CFG, make_auto

from polaris import exchange
from polaris.automata import is_bisimilar, natural_project, parallel_compose
from polaris.cli import main

DATA = Path(__file__).resolve().parent.parent / "src" / "polaris" / "data"


@pytest.fixture
def files(tmp_path):
    a = make_auto([("q0", "a", "q1"), ("q1", "b", "q0")], marked={"q0"},
                  controllable={"a"})
    b = make_auto([("p0", "a", "p1"), ("p1", "a", "p0")], initial="p0",
                  marked={"p0"}, controllable={"a"})
    pa, pb = tmp_path / "a.aut", tmp_path / "b.aut"
    exchange.write(a, pa)
    exchange.write(b, pb)
    return tmp_path, pa, pb, a, b


def test_bisim_exit_codes(files, capsys):
    (_, pa, pb, _, _) = files
    assert main(["bisim", str(pa), str(pa)]) == 0
    assert "bisimilar" in capsys.readouterr().out
    assert main(["bisim", str(pa), str(pb)]) == 1
    assert "not bisimilar" in capsys.readouterr().out


def test_compose_writes_product(files):
    (tmp, pa, pb, a, b) = files
    out = tmp / "product.aut"
    assert main(["compose", str(pa), str(pb), "-o", str(out)]) == 0
    assert is_bisimilar(exchange.read(out), parallel_compose(a, b))


def test_project_with_keep_list(files):
    (tmp, pa, _, a, _) = files
    out = tmp / "proj.aut"
    assert main(["project", str(pa), "--keep", "a", "-o", str(out)]) == 0
    assert is_bisimilar(exchange.read(out), natural_project(a, {"a"}))


def test_check_controllable_pass_and_fail(tmp_path, capsys):
    plant = make_auto([("p0", "c", "p1"), ("p1", "d", "p0")], initial="p0",
                      controllable={"c"})
    good = make_auto([("s0", "c", "s1"), ("s1", "d", "s0")], initial="s0",
                     controllable={"c"})
    bad = make_auto([("s0", "c", "s1")], initial="s0", controllable={"c"},
                    events={"d"})
    pp, pg, pb = tmp_path / "p.aut", tmp_path / "g.aut", tmp_path / "bad.aut"
    exchange.write(plant, pp)
    exchange.write(good, pg)
    exchange.write(bad, pb)
    assert main(["check-controllable", "--plant", str(pp), "--spec", str(pg)]) == 0
    assert main(["check-controllable", "--plant", str(pp), "--spec", str(pb)]) == 1
    assert "uncontrollable d" in capsys.readouterr().out


def test_check_decomposable_v_shape(tmp_path, capsys):
    v = make_auto([("q0", "e1", "q1"), ("q0", "e2", "q2")])
    path = tmp_path / "v.aut"
    exchange.write(v, path)
    code = main(["check-decomposable", str(path), "--events1", "e1", "--events2", "e2"])
    assert code == 1
    out = capsys.readouterr().out
    assert "decomposable: False" in out
    assert "dc1: fail" in out


def test_build_models_and_decomposability_via_files(tmp_path, capsys):
    out = tmp_path / "models"
    assert main(["build-models", "--partition", "30,3,5", "-o", str(out)]) == 0
    report = capsys.readouterr().out
    assert "decomposable_collision = True" in report
    assert "mission_nonblocking = True" in report
    for name in ("a1", "a2", "af1", "af2", "ac", "ac1", "ac2"):
        assert (out / f"{name}.aut").exists()
    assert (out / "report.txt").exists()
    code = main([
        "check-decomposable", str(out / "ac.aut"),
        "--events1", f"@{out / 'ac1.aut'}",
        "--events2", f"@{out / 'ac2.aut'}",
    ])
    assert code == 0


def test_verify_theorem1_via_files(tmp_path, capsys):
    out = tmp_path / "models"
    assert main(["build-models", "--partition", "30,3,5", "-o", str(out)]) == 0
    capsys.readouterr()
    joint = tmp_path / "joint.aut"
    assert main(["compose", str(out / "a1.aut"), str(out / "a2.aut"), "-o", str(joint)]) == 0
    spec = tmp_path / "spec.aut"
    assert main(["compose", str(out / "ac.aut"), str(joint), "-o", str(spec)]) == 0
    code = main([
        "verify-theorem1",
        "--plant1", str(out / "a1.aut"),
        "--plant2", str(out / "a2.aut"),
        "--controller", str(out / "ac.aut"),
        "--spec", str(spec),
    ])
    assert code == 0
    assert "decentralized_matches_spec = True" in capsys.readouterr().out


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(DATA / "paper_phase12.cfg"),
                 "-o", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "events.log").exists()
    assert (out / "verdicts.txt").exists()
    controllers = (out / "controllers.txt").read_text()
    assert "mode=exit_r-" in controllers and "mode=invariant" in controllers
    stdout = capsys.readouterr().out
    assert "min_separation" in stdout


# SHA-256 of every ``simulate`` output file, recorded before the simulator
# step was rewritten around precomputed tables and a memoized command
# choice; any change to the outputs shows here.
GOLDEN_SIMULATE = {
    "bundled": {
        "trajectory.csv": "86854334ff60be4c4fd8d14383f14d83f20163f48aecf15872d352af5fa31387",
        "events.log": "904110a26f7144b1752996c758095237a10e9d341fc3ccb2e20d6c6dadd0638e",
        "verdicts.txt": "41b0405e64ebc3e4f89795328dd6c422202234003386581c3b34561e43f7fcba",
        "controllers.txt": "7665556d8ca0ca52c98956420502997f99df9c6a37f2de57c1111fc4c128295b",
    },
    "crossing": {
        "trajectory.csv": "8b9348c3690ae0cc2be54e31c71526a82dd56f114de05c620a03023e8351eddf",
        "events.log": "12066a4f2729053b88e985f02c5cd6aa24519d18a653c03e5c51898f2623ba4a",
        "verdicts.txt": "14f227dedf6613809e216cf56eed6f61b062a929ca0957817270705e1b0c19f5",
        "controllers.txt": "3b9bb8059cd0754b4b0fbbc934385f771a2a0e5db0a241cb1069b5199c3ebd98",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SIMULATE))
def test_simulate_outputs_match_golden_digests(tmp_path, capsys, name):
    scenario = DATA / "paper_phase12.cfg"
    if name == "crossing":
        scenario = tmp_path / "crossing.cfg"
        scenario.write_text(CROSSING_CFG, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario), "-o", str(out)]) == 0
    if name == "crossing":
        assert "release=R21" in capsys.readouterr().out
    digests = {
        f: hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in GOLDEN_SIMULATE[name]
    }
    assert digests == GOLDEN_SIMULATE[name]


# SHA-256 of every ``build-models`` output file (``report.txt`` without its
# ``elapsed_s`` line), recorded before the collision supervisor was built
# and checked once per build; any change to the outputs shows here.
GOLDEN_BUILD_MODELS = {
    "50,3,3": {
        "a1.aut": "c7ac2ebf007dd7f2ac5fc4a2f4ac828f49ca3808143be76ff381e7bc2cb10031",
        "a2.aut": "e93759308c4a742157a1a13dd9b7786caa480fa4ff0d9418d65ee3033089f221",
        "ac.aut": "7146c55dcf5d291df44e03d3bc094aff68bdf885ea28e11f73e573595d9235d3",
        "ac1.aut": "efa5ca9d4fa9d3d202d619963037d5dc716f97f08d11a99d022c337fc0499eeb",
        "ac2.aut": "8ffa4c16a4a4de8202c18e4f0ce539245c9aa4d0eceaa6ad04f0eb4be550fbc6",
        "af1.aut": "773b22793cccd52e4437ac5b26ab6430c7f16ae42ae7aa84ce442ef2a07786c8",
        "af2.aut": "a2f0dd20553d078e0c0d15e65546540be93e935b77da76074a502646229f1b53",
        "report.txt": "391b6a401a77d78ae07148d6296f3bdb6ad8566e7f928812323727c323cefc26",
    },
    "50,6,9": {
        "a1.aut": "ce3697f825734e2b78dbee2222f277a81e76e0065c143b983a992a15acb064b6",
        "a2.aut": "0f8d39740a64c6e5a7e978c594aacecaf6a8de7922748881dc316364a418e7e8",
        "ac.aut": "0af6baf6b61b4b424624a560189284c35e6a24e9cf6d1d55a193c331ffa9ef27",
        "ac1.aut": "cc1a086ca908de5df005067666176caf74501b48f5fde333be84c9d7eb206f9a",
        "ac2.aut": "ed7fb8e8c52ee2ba6cd7f0ac460a4fc02f4f4141f1b154f5e4cece4610ff2541",
        "af1.aut": "f38e8a202d6d896ee8ff083e6143990a41d0edd400bd7e30bba8acd87f074af2",
        "af2.aut": "06003e4855bf1a3dc6fb7870da82ce58deeedd99e468a74bf8ee89fbdf9cb7d4",
        "report.txt": "f533bfea5100f8512309c977b368895cb138c2a3524f435fb2fd35fc758ee875",
    },
    # the partition of the benchmark's synthesis workload
    "50,9,13": {
        "a1.aut": "d4bb0b01d498517f90faf53572259d8c53d2d13883b4a240e536f8ddaaa4dd30",
        "a2.aut": "f1fc78289ea8cfdf774a5e28b18befba243d4bd69bfc9221c031b265b7916981",
        "ac.aut": "b60636de54b8e08c2c277d269b580b34a7a94ae3da22d900f25acf135c9cae9a",
        "ac1.aut": "a869a2acb8abe56cedbcfeeffd08f4f65f8c42c455d04bc685b345771b084a7c",
        "ac2.aut": "2404c32f9b0e5cb3593b1c4e11b3d47fba72fdddefadedaa534731e9486c66f7",
        "af1.aut": "07f59c6f8cf9abe37591bf48c99b99160eff66f46e10471016de3b9c18edf41d",
        "af2.aut": "93b0f15907ddf1532ffbe7ab32fe74675836f653033daccad2931c209479874a",
        "report.txt": "5ca15dc6edd5fd9882e17cdb5b88d7fd04737248b859017386c28987d57830fe",
    },
    "50,12,18": {
        "a1.aut": "c7e30015b898a5175f5ddf604afcdc4b8f7027efc53822505d6a97628de28cc6",
        "a2.aut": "95de181c1f646eef5633f6b2554c1aa6ae1d65592a9af3d93bba3f74af333663",
        "ac.aut": "ec28ee200d7a3bb6c8fe91863f32e33beb76db05dbf24b0bef362da70da3f81f",
        "ac1.aut": "e66049d9085d5bd33e017d57eb7e4f11e243000af6e0b4b7b3f7d0fce08c566e",
        "ac2.aut": "85a2442ed066674efc41306d22aa9fb31bbcccccdfe6ec46ef7e8c97651c654d",
        "af1.aut": "0aebdfcafe4745ab2c906501528a534fb63d2775f03a48bdbbe9e6856c132e6e",
        "af2.aut": "deb642009d4f602cf7c714d1196975ffb72e3523ed9e6afd270886d1d91cf893",
        "report.txt": "c9b910abd1fbad3fa820487970a8a1df234ea2fa87ac06259c4eeee72fa01783",
    },
}


@pytest.mark.parametrize("partition", sorted(GOLDEN_BUILD_MODELS))
def test_build_models_outputs_match_golden_digests(tmp_path, capsys, partition):
    out = tmp_path / "models"
    assert main(["build-models", "--partition", partition, "-o", str(out)]) == 0
    digests = {}
    for f in GOLDEN_BUILD_MODELS[partition]:
        lines = (out / f).read_bytes().splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(b"elapsed_s"))
        digests[f] = hashlib.sha256(data).hexdigest()
    assert digests == GOLDEN_BUILD_MODELS[partition]


def test_check_decomposable_bound_option_exits_2(tmp_path, capsys):
    # dc3 is decided exactly, so there is no string bound to set
    path = tmp_path / "v.aut"
    exchange.write(make_auto([("q0", "e1", "q1"), ("q0", "e2", "q2")]), path)
    with pytest.raises(SystemExit) as exc:
        main(["check-decomposable", str(path), "--events1", "e1",
              "--events2", "e2", "--bound", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bound" in captured.err


@pytest.mark.parametrize(
    "line", ["sim.t_end = inf", "avoid.alarm_radius = nan", "sim.u_max = inf"]
)
def test_simulate_non_finite_value_exits_2(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    kept = [row for row in CROSSING_CFG.splitlines() if not row.startswith(key)]
    scenario = tmp_path / "bad.cfg"
    scenario.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "out")]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("r_max", ["nan", "inf"])
def test_build_models_non_finite_partition_exits_2(tmp_path, capsys, r_max):
    out = tmp_path / "models"
    assert main(["build-models", "--partition", f"{r_max},9,13", "-o", str(out)]) == 2
    assert "r_max must be positive and finite" in capsys.readouterr().err


def test_io_error_exits_2(capsys):
    assert main(["bisim", "missing1.aut", "missing2.aut"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    env = dict(os.environ, POLARIS_LOG="quiet")
    out = subprocess.run(
        [sys.executable, "-m", "polaris", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert "simulate" in out.stdout
