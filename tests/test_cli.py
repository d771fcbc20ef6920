import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CROSSING_CFG, SRC, make_auto, run_polaris, team_plants

from polaris import cli, exchange, models, sim, supervision
from polaris.automata import is_bisimilar, natural_project, parallel_compose
from polaris.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "polaris" / "data"


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
    (_, pa, _, _, _) = files
    assert main(["bisim", str(pa), str(pa)]) == 0
    assert capsys.readouterr().out == "bisimilar\n"


def test_compose_writes_product(files):
    (tmp, pa, pb, a, b) = files
    out = tmp / "product.aut"
    assert main(["compose", str(pa), str(pb), "-o", str(out)]) == 0
    assert is_bisimilar(exchange.read(out), parallel_compose(a, b))


def test_written_files_are_reported_on_stderr_unless_quiet(files, capsys, monkeypatch):
    (tmp, pa, pb, _, _) = files
    out = tmp / "product.aut"
    assert main(["compose", str(pa), str(pb), "-o", str(out)]) == 0
    assert capsys.readouterr().err == f"INFO polaris: wrote {out} (4 states)\n"
    monkeypatch.setenv("POLARIS_LOG", "quiet")
    assert main(["project", str(pa), "--keep", "a", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""


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
    # c reaches s1 and s2, which enable the uncontrollable d and e: the
    # spec enables both after c, so an NFA is controllable against itself
    nfa = make_auto(
        [("s0", "c", "s1"), ("s0", "c", "s2"), ("s1", "d", "s0"), ("s2", "e", "s0")],
        initial="s0", controllable={"c"},
    )
    pn = tmp_path / "nfa.aut"
    exchange.write(nfa, pn)
    assert main(["check-controllable", "--plant", str(pn), "--spec", str(pn)]) == 0
    assert capsys.readouterr().out == "controllable\n"


# exact stdout and exit code of verdicts that fail or carry a failing
# condition; the controllable and bisimilar inputs are the ones above
VERDICT_PINS = {
    "bisim": (
        lambda d: ["bisim", d["a"], d["b"]],
        1, "not bisimilar; distinguishing state pair: ('q0', 'p0')\n",
    ),
    "check-controllable": (
        lambda d: ["check-controllable", "--plant", d["plant"], "--spec", d["bad"]],
        1, "not controllable: after c the plant allows uncontrollable d but the spec does not\n",
    ),
    "dc1-v-shape": (
        lambda d: ["check-decomposable", d["v"], "--events1", "e1", "--events2", "e2"],
        1, "decomposable: False\ndc1: fail ('q0', 'e1', 'e2')\ndc2: pass\ndc3: pass\ndc4: pass\n",
    ),
    "dc4-only": (
        lambda d: ["check-decomposable", d["loop"], "--events1", "a,b", "--events2", "a"],
        0, "decomposable: True\ndc1: pass\ndc2: pass\ndc3: pass\ndc4: fail ('s0', 'a', 's0', 's1')\n",
    ),
    "all-pass-not-decomposable": (
        lambda d: ["check-decomposable", d["cycle"], "--events1", "x", "--events2", "y"],
        1, "decomposable: False\ndc1: pass\ndc2: pass\ndc3: pass\ndc4: pass\n",
    ),
}


@pytest.mark.parametrize("case", sorted(VERDICT_PINS))
def test_failing_verdict_output_is_pinned(files, capsys, case):
    (tmp, pa, pb, _, _) = files
    autos = {
        "plant": make_auto([("p0", "c", "p1"), ("p1", "d", "p0")], initial="p0",
                           controllable={"c"}),
        "bad": make_auto([("s0", "c", "s1")], initial="s0", controllable={"c"}, events={"d"}),
        "v": make_auto([("q0", "e1", "q1"), ("q0", "e2", "q2")]),
        "loop": make_auto([("s0", "a", "s0"), ("s0", "b", "s1")], initial="s0", marked={"s1"}),
        "cycle": make_auto([("a", "x", "b"), ("b", "y", "a")], initial="a"),
    }
    paths = {"a": str(pa), "b": str(pb)}
    for (name, auto) in autos.items():
        paths[name] = str(tmp / f"{name}.aut")
        exchange.write(auto, paths[name])
    (argv, code, stdout) = VERDICT_PINS[case]
    assert main(argv(paths)) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (stdout, "")


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


@pytest.fixture
def theorem1_files(tmp_path, capsys):
    """Models at 30,3,5, their joint plant and the spec ac || joint."""
    out = tmp_path / "models"
    assert main(["build-models", "--partition", "30,3,5", "-o", str(out)]) == 0
    joint = tmp_path / "joint.aut"
    assert main(["compose", str(out / "a1.aut"), str(out / "a2.aut"), "-o", str(joint)]) == 0
    spec = tmp_path / "spec.aut"
    assert main(["compose", str(out / "ac.aut"), str(joint), "-o", str(spec)]) == 0
    capsys.readouterr()
    return out, joint, spec


def _verify_theorem1(out, spec):
    return main([
        "verify-theorem1",
        "--plant1", str(out / "a1.aut"),
        "--plant2", str(out / "a2.aut"),
        "--controller", str(out / "ac.aut"),
        "--spec", str(spec),
    ])


def test_verify_theorem1_via_files(theorem1_files, capsys):
    (out, _, spec) = theorem1_files
    assert _verify_theorem1(out, spec) == 0
    assert capsys.readouterr().out == (
        "centralized_matches_spec = True\ndecentralized_matches_spec = True\n"
    )


def test_verify_theorem1_rejects_a_wrong_spec(theorem1_files, capsys):
    # the joint plant alone allows what the collision controller forbids
    (out, joint, _) = theorem1_files
    assert _verify_theorem1(out, joint) == 1
    assert capsys.readouterr().out == (
        "centralized_matches_spec = False\ndecentralized_matches_spec = False\n"
    )


def _team_files(tmp_path, controller, spec):
    """The team plants, the controller and the spec as .aut files."""
    (ap1, ap2) = team_plants()
    if spec is None:
        spec = parallel_compose(controller, parallel_compose(ap1, ap2))
    for (name, auto) in (("a1", ap1), ("a2", ap2), ("ac", controller), ("spec", spec)):
        exchange.write(auto, tmp_path / f"{name}.aut")
    return tmp_path


def test_verify_theorem1_reports_an_undecomposable_controller(tmp_path, capsys):
    # each agent may take its private command, the controller only one
    controller = make_auto([("c0", "a", "c1"), ("c0", "b", "c2"), ("c0", "go", "c0")],
                           initial="c0", controllable={"a", "b", "go"})
    out = _team_files(tmp_path, controller, None)
    assert _verify_theorem1(out, out / "spec.aut") == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "centralized_matches_spec = True\ndecentralized_matches_spec = False\n"
    )
    assert captured.err == ""


def test_verify_theorem1_projects_a_nondeterministic_controller(tmp_path, capsys):
    # projection determinizes: the local supervisors allow go forever,
    # while the controller may take a go after which it allows nothing
    controller = make_auto([("c0", "go", "c0"), ("c0", "go", "c1")],
                           initial="c0", controllable={"go"})
    assert not controller.deterministic
    out = _team_files(tmp_path, controller, parallel_compose(*team_plants()))
    assert _verify_theorem1(out, out / "spec.aut") == 0
    assert capsys.readouterr().out == (
        "centralized_matches_spec = False\ndecentralized_matches_spec = True\n"
    )


def test_simulate_writes_outputs(tmp_path, capsys, monkeypatch):
    formatted = []
    verdicts_text = sim.ScenarioResult.verdicts_text

    def counted(result):
        formatted.append(result)
        return verdicts_text(result)

    monkeypatch.setattr(sim.ScenarioResult, "verdicts_text", counted)
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(DATA / "paper_phase12.cfg"),
                 "-o", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "events.log").exists()
    controllers = (out / "controllers.txt").read_text()
    assert "mode=exit_r-" in controllers and "mode=invariant" in controllers
    stdout = capsys.readouterr().out
    assert "min_separation" in stdout
    # the verdicts are formatted once, and stdout shows the file's bytes
    assert stdout.encode("utf-8") == (out / "verdicts.txt").read_bytes()
    assert len(formatted) == 1


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
    # the partition of the bundled mission
    "50,21,9": {
        "a1.aut": "25a4f9d33d49af9ba37197d74f8a14c0a3abc4e597729f6f3e0b906f8fb1d8ec",
        "a2.aut": "c2a4d50991f744a29abf8df2815cea6c917fb9241afa026e7e942818e39f9302",
        "ac.aut": "ce3529ee616e62538afb5b498eea1d8cfe17e27dc7bde208f2c67275ff4e66df",
        "ac1.aut": "83454361b5332f5ee391cd95c99311866c6a5713a4f0e0999fce4b750d531031",
        "ac2.aut": "0b632c58bfdd162fdc2f42c31530f3e71e42e35e58723bfcf95ea7670016071d",
        "af1.aut": "b29141f720d492668208abdec7b497e78c3fbe45f07f46ff5c2984d036cb72a3",
        "af2.aut": "c8c2139f8d034bd6db9d1f298b7a6f538ac707c9282703c7b8816a5c93d60ccd",
        "report.txt": "21935b07eca3b765d1fda956a51fae6591f76a099bfe6d7d7e6828909b617152",
    },
    "50,24,36": {
        "a1.aut": "678ec007e26da8e8be73a3f2da807f9f8046e1e031dce89e71f1449b87d45a35",
        "a2.aut": "5a85df286ed10e9486c5bd493e0f54c1c01e445e47935c6486db4d1ac2df67fc",
        "ac.aut": "5b2b02221edf899a00de7cdf5c58ea5c27603aa56ec1f0ebe955e482795bc4ab",
        "ac1.aut": "52667fa98dc9faea798c97868238cb1bd14b7a8998a14fcf0cd14ca5dfae3816",
        "ac2.aut": "b03b8665f818c07a192673f789fbbff0024bf901ab73bdf5112eeff066392b38",
        "af1.aut": "bc1f541398ec2ca66bd5aa8c7fdad3d495c0952dd29fda8eeba0461b4355e3ae",
        "af2.aut": "8db7023076a7d6f4e687bb8264d3d2878138c6735dcf4a013a8f48c1916e4509",
        "report.txt": "ce5feab6bd61ad0377db52bc647266b35f6b9881c9b55db64386a5e20bcc4a20",
    },
    # degenerate partitions: one ring (no outer detections) and one
    # full-circle sector
    "50,2,2": {
        "a1.aut": "549cad9c4d53738d5012afa718c2e087a8c18f4fa1a033153eb25f4e83b6563a",
        "a2.aut": "79482334a7b181d5f2984033075cc016956df612c1cbf70e9ed5566049da1372",
        "ac.aut": "40536a2deb5f68ddc2f7395b48568141090019f536d4033e31f53a346f0778ec",
        "ac1.aut": "c7eb0bac99789fa1f0cf7c90e20052631f35d465e7c25c3b8396327075b855db",
        "ac2.aut": "7b4823ab3306e0e2b3bb0507f69a63995f32e48e5e5d4931f4bbd8c4fc95bf0e",
        "af1.aut": "adf1225f3a5b99ae5037028a1e5ffcb96aab1daa85a6197ff79d7e53aa467f74",
        "af2.aut": "d618778619b851686a3e90ab6e4cdda098bf3946f60e2966a926cef0ad65ef84",
        "report.txt": "0c469892906a170b4280cbf00b942401508190d9e3a509b3fee40c270ca66faf",
    },
    "50,2,9": {
        "a1.aut": "95c975621a7dce33183161c592110fe6aaafb668379a53196597d0ae3dee3e22",
        "a2.aut": "fef7679bd26e841211a64ba362bcd76c947abe86d575accc29b3c799f5529f08",
        "ac.aut": "9c6a59165df960b4ca5286fc23218b2a72be1e042e4477d804ac0b22f772725b",
        "ac1.aut": "a84269c134db83f3de4ba559d05628338adc46b0d2ae0cb8cddd195dc6f14ad8",
        "ac2.aut": "8778a8151eac8f71aef61390668e6fde6b9b6238793072cfb332ee4d76ce9e28",
        "af1.aut": "d82ac911ee27e6f6993dc663beb39a94000841c30c61b70852df2378969fd26b",
        "af2.aut": "1a24d8c9d4a15919c94371c47219cf04ca6cdea071ee74763bd7732d825b15e3",
        "report.txt": "1837dfbb8a48227679ad6983978025c28080c69108304b722f93e7756f8873ea",
    },
    "50,6,2": {
        "a1.aut": "36d2cd8d3675a71a0a5ccb364fd3e4c56a487794de02dcbe90bab80f2825cf4b",
        "a2.aut": "494fa2a38fd7489ff9f4181340f5636d29edaf8d83cbb6e96145243264444a6c",
        "ac.aut": "5827916c8a39d41a23fc84a54690d931579a471d3a50f4c5aaf810692eb0ec6a",
        "ac1.aut": "d2966b0367f7eaf929303f6ce151b8cd03b8d0dbb1cbeb0c374491439c4f8634",
        "ac2.aut": "804a6ddb4eb648659dc7f886ade0196ee209a51ea534db11b6dbd65f9a7ee392",
        "af1.aut": "2569207fbf3287ba70b89405dda4d4fa9a3e652e88baf8cc96ad248153223057",
        "af2.aut": "85132c0af61efb3a8ac9fefbdecba172d407ac61b2d048327e901f92ef3c8282",
        "report.txt": "cada01cfe827b736f052ad2b67889e14948697ca80002412caa105d9fe943a23",
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


def test_build_models_decides_decomposability_once(tmp_path, capsys, monkeypatch):
    originals = {
        "check_decomposability": supervision.check_decomposability,
        "natural_project": natural_project,
        "is_bisimilar": is_bisimilar,
        "parallel_compose": parallel_compose,
    }
    calls = dict.fromkeys(originals, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {name: counted(name, fn) for (name, fn) in originals.items()}
    patched = set()
    for (module_name, module) in list(sys.modules.items()):
        if module_name != "polaris" and not module_name.startswith("polaris."):
            continue
        for (name, fn) in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrappers[name])
                patched.add(module_name)
    assert {"polaris.automata", "polaris.supervision", "polaris.models", "polaris.cli"} <= patched
    models.build_models.cache_clear()
    assert main(["build-models", "--partition", "50,9,13", "-o", str(tmp_path / "models")]) == 0
    # only check_decomposability's p1 || p2 is composed; the joint plant,
    # the spec, the team and the mission loop are only walked, and
    # verify_decentralized bisimulates the team through is_bisimilar
    assert calls == {
        "check_decomposability": 1, "natural_project": 2, "is_bisimilar": 2, "parallel_compose": 1,
    }


def test_build_models_exits_1_when_the_collision_supervisor_is_not_decomposable(
    undecomposable_collision, tmp_path, capsys
):
    out = tmp_path / "models"
    assert main(["build-models", "--partition", "30,3,5", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert "decomposable_collision = False\n" in captured.out
    assert captured.err == ""
    assert (out / "report.txt").read_text(encoding="utf-8") == captured.out
    assert sorted(p.name for p in out.iterdir()) == [
        "a1.aut", "a2.aut", "ac.aut", "ac1.aut", "ac2.aut", "af1.aut", "af2.aut", "report.txt",
    ]


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


@pytest.mark.parametrize("t_end, dt", [("20", "5e-324"), ("1e308", "1e-10")])
def test_simulate_step_count_that_overflows_exits_2(tmp_path, t_end, dt):
    kept = [
        row for row in (DATA / "paper_phase12.cfg").read_text(encoding="utf-8").splitlines()
        if not row.startswith(("sim.t_end", "sim.dt"))
    ]
    scenario = tmp_path / "overflow.cfg"
    scenario.write_text("\n".join(kept + [f"sim.t_end = {t_end}", f"sim.dt = {dt}"]) + "\n",
                        encoding="utf-8")
    proc = run_polaris("simulate", "--scenario", str(scenario), "-o", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "sim.t_end / sim.dt" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("r_max", ["5e-324", "1e-321"])
def test_simulate_partition_whose_steps_underflow_exits_2(tmp_path, r_max):
    scenario = tmp_path / "tiny.cfg"
    scenario.write_text(
        f"partition.r_max = {r_max}\n"
        "follower1.initial_position = 0,0\nfollower1.offsets = 0:0,0\n"
        "follower2.initial_position = 0,0\nfollower2.offsets = 0:0,0\n",
        encoding="utf-8",
    )
    proc = run_polaris("simulate", "--scenario", str(scenario), "-o", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "too small" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_failure_reports_where_the_run_stopped(tmp_path, capsys):
    # test_sim's trailing run: without velocity authority follower 2 is
    # dragged past the 40 m horizon at t = 2, one step after the last world
    scenario = tmp_path / "trailing.cfg"
    scenario.write_text(
        "partition.r_max = 40\npartition.n_r = 5\npartition.n_theta = 9\n"
        "sim.t_end = 10\nsim.u_max = 0\nleader.velocity = 0:10,0\n"
        "follower1.initial_position = 30,10\nfollower1.offsets = 0:10,10\n"
        "follower2.initial_position = -30,-10\nfollower2.offsets = 0:-10,-10\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("error: follower 2 at relative radius")
    assert lines[1] == "  at t=1.980000 step_index=99"
    assert lines[2] == "  follower 1 relative position (0.200000, 0.000000)"
    assert lines[3] == "  follower 2 relative position (-39.800000, 0.000000)"
    assert lines[4] == "  last 8 event records:"
    assert lines[5] == "    t=0.000000 agent=1 event=Cr-1 detail=region=(2,1)"
    assert lines[-1] == "    t=1.020000 agent=1 event=C0_1 detail=region=(1,1)"
    assert "    t=1.000000 agent=2 event=d_4_4_2 detail=region=(4,4)" in lines
    assert len(lines) == 13
    assert not (tmp_path / "out").exists()


def test_simulate_start_failure_has_no_world_to_report(tmp_path, capsys):
    scenario = tmp_path / "beyond.cfg"
    scenario.write_text(CROSSING_CFG.replace("-15.925,17.239", "-150,17.239"), encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {scenario}: follower 1 at relative radius 165.565 beyond horizon 50\n"
    )
    assert not (tmp_path / "out").exists()


def test_simulate_start_in_the_innermost_ring_names_the_file(tmp_path, capsys):
    scenario = tmp_path / "inside.cfg"
    scenario.write_text(CROSSING_CFG.replace("-15.925,17.239", "15.855,2.921"), encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {scenario}: follower 1 starts inside the innermost ring; "
        "the reach policy needs a start outside it\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("r_max", ["nan", "inf"])
def test_build_models_non_finite_partition_exits_2(tmp_path, capsys, r_max):
    out = tmp_path / "models"
    assert main(["build-models", "--partition", f"{r_max},9,13", "-o", str(out)]) == 2
    assert "r_max must be positive and finite" in capsys.readouterr().err


def test_io_error_exits_2(tmp_path, capsys):
    missing_aut = str(tmp_path / "missing1.aut")
    assert main(["bisim", missing_aut, str(tmp_path / "missing2.aut")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing_aut}: ")
    assert err.count(missing_aut) == 1
    missing = str(tmp_path / "missing.cfg")
    assert main(["simulate", "--scenario", missing, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: ")
    assert err.count(missing) == 1
    # a file that is not UTF-8 is named as well
    bad_aut = tmp_path / "bad.aut"
    bad_aut.write_bytes(b"\xff")
    assert main(["bisim", str(bad_aut), str(bad_aut)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad_aut}: ")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(b"\xff")
    assert main(["simulate", "--scenario", str(bad_cfg), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad_cfg}: ")


@pytest.mark.parametrize(
    ("argv", "fragment"),
    [
        (["build-models", "--partition", "50,9"], "--partition expects 'r_max,n_r,n_theta'"),
        (["project", "{a}", "--keep", "a,zz"], "keep set contains unknown events: ['zz']"),
        (["build-models", "--partition", "50,6.5,9"], "--partition: bad number in '50,6.5,9'"),
    ],
)
def test_bad_arguments_exit_2(files, capsys, argv, fragment):
    (tmp, pa, _, _, _) = files
    argv = [arg.replace("{a}", str(pa)) for arg in argv] + ["-o", str(tmp / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {fragment}\n"


@pytest.mark.parametrize(
    ("text", "located"),
    [
        ("sim.foo = 1\n", ":1: unknown key 'sim.foo'"),
        ("sim.t_end = 5\nsim.dt = -1\n", ":2: sim.dt must be positive"),
        ("sim.t_end = 5\navoid.release_radius = 4\n",
         ":2: avoid.release_radius must exceed avoid.alarm_radius (hysteresis)"),
        ("follower1.offsets = 0:1,2 0:3,4\n",
         ":1: follower1.offsets times must be strictly increasing"),
        ("partition.n_r = 1\n", ":1: partition.n_r must be an integer of at least 2"),
    ],
    ids=["unknown-key", "dt", "hysteresis", "schedule", "partition"],
)
def test_scenario_content_errors_name_the_file(tmp_path, capsys, text, located):
    scenario = tmp_path / "unk.cfg"
    scenario.write_text(text, encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {scenario}{located}\n"


def test_two_main_calls_build_the_parser_once(files, capsys):
    (_, pa, pb, _, _) = files
    cli.build_parser.cache_clear()
    assert main(["bisim", str(pa), str(pa)]) == 0
    assert main(["bisim", str(pa), str(pb)]) == 1
    assert cli.build_parser.cache_info().misses == 1
    assert capsys.readouterr().out.splitlines()[0] == "bisimilar"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    out = run_polaris("--help", POLARIS_LOG="quiet")
    assert out.returncode == 0
    assert "simulate" in out.stdout


def test_cli_import_loads_no_code_generating_modules():
    # records are NamedTuples and __slots__ classes: importing the CLI
    # must not pull in dataclasses or, through it, inspect; nor logging,
    # which the two INFO lines do not need
    probe = (
        "import sys, polaris.cli; "
        "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert out.stdout == "[]\n"


def _readme_cli_commands():
    """The commands of the README's CLI block, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # the block runs from a checkout's root; the scenario is its one input
    scenario = tmp_path / "src" / "polaris" / "data" / "paper_phase12.cfg"
    scenario.parent.mkdir(parents=True)
    scenario.write_bytes((DATA / "paper_phase12.cfg").read_bytes())
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert "verify-theorem1" in [command[1] for command in commands]
    for command in commands:
        assert command[0] == "polaris"
        assert main(command[1:]) == 0, (command, capsys.readouterr().err)
