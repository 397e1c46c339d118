"""Golden fence: sha256 of the CLI's deterministic outputs, pinned.

The hashes were produced by the scalar per-replica engine (the negative-theta
and lottery-free theta cases by the batch engine's one-draw-at-a-time theta
loop, which reproduces it) and the row-at-a-time
``csv.writer`` trace writer. Any engine or writer change that alters a state,
an action, a payoff bit, a float repr or the summary fails here, unlike
run-vs-run determinism checks, which drift together. The ``analyze``
hashes were produced by the tuple-indexed Nash enumeration and grim
thresholds; they fence the analytic report's every profile key and figure.
The contest case also pins its kernel's bytes, checked in child processes
under numpy's CPU-feature masks and a glibc hwcaps mask; every pin is also
checked in one child process under that glibc mask.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest
import yaml

from mutagame.cli import EXIT_OK, main
from mutagame.presets import FIXED_RULES, MUTABLE_CORE


def theta_doc(theta, lottery=True):
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = lottery
    doc["theta"] = theta
    return doc


def lottery_doc():
    """fixed_rules with the block lottery and no theta."""
    doc = yaml.safe_load(FIXED_RULES)
    doc["game"]["lottery_mode"] = True
    return doc


def contest_doc():
    """mutable_core with miner 2 made a second MetaInvestor, on another state,
    and a contest exponent of 1.36: each contest weight is a true power."""
    doc = yaml.safe_load(MUTABLE_CORE)
    doc["miners"][2] = {"share": 0.2, "strategy": "MetaInvestor", "meta_budget": 0.113,
                        "preferred_state": 1}
    doc["meta"]["contest_exponent"] = 1.36
    return doc


RUN_CASES = {
    "fixed_rules": (
        lambda: yaml.safe_load(FIXED_RULES),
        "73e767f410b77be46bb9a0531f2b2c1b1441fe172d98711d372868294819adc3",
        "e680142ac601cb87419ba3152729b091df2b1ef78029eb91663202a8e745bb1f",
    ),
    # The endogenous utility is summed in round order, the same bits under
    # every BLAS kernel (test_outputs_do_not_depend_on_the_blas_kernel).
    "mutable_core": (
        lambda: yaml.safe_load(MUTABLE_CORE),
        "f7c7f35b90e7a3eeb01d07459ffd9498d97d9bf6b1c7c549c8ffef35a74e64df",
        "90f5a85d4fa0dfdde5bd39463d2f3d5af6969a1a70d3a2538ef03bf27def6fde",
    ),
    "mutable_core_contest": (
        contest_doc,
        "54e25e4cc712a9ff4da379de81ccca80cf6101edab1d9f59da1ade10e955ba0d",
        "454604ddb55fdfd5e1608657a0cf8a2afda9b5d04249420f88399068974bd915",
    ),
    # Two draws per round: the protocol step and the lottery's uniform. With
    # no theta, each line's tail is a function of (state, profile, winner).
    "fixed_rules_lottery": (
        lottery_doc,
        "84d3116e12cec856aaaf4b808c9031bcd65e4bb2d9241ed9938e7a101d1a9d9c",
        "c1dee6d1774d3653db76b52e92e0c59b856cb0161f35421cd0b9e35d09232289",
    ),
    # Two draws per round: the protocol step and theta's normal.
    "fixed_rules_theta": (
        lambda: theta_doc({"mean": 1.0, "variance": 0.04}, lottery=False),
        "4891aeeb426e469d3297c239123324d54a29879fb77b700b543757f2e8899dfb",
        "396598dcce01a04c219806fa4d5b88443c58b16fbeb1884f02f32a4c5358ef8e",
    ),
    "fixed_rules_lottery_theta": (
        lambda: theta_doc({"mean": 1.0, "variance": 0.04}),
        "eb96fddf4a032522e32085446de3f4ce8a43fbc14bf8f4697ab4c308322ba0e8",
        "b9df5e5fc0d0ec002e4fe6b0cb84bc437ce97af8265355dfbd750688a9764497",
    ),
    # Unclamped theta below zero times a lottery loser's zero mask: about
    # 9.9k "-0.0" payoff fields in trace.csv.
    "fixed_rules_lottery_negative_theta": (
        lambda: theta_doc({"mean": 0.0, "variance": 1.0, "clamp": False}),
        "a184c3bee3830885c96c7f9cd45c94ce4ab27073740f0dde268787aec09497e6",
        "a3b62b627f85f8c52b962e6f684843190c759ab30a7ae0bffa7f051580056281",
    ),
}

SWEEP_SHA256 = "45c326b8f8a8dd3785465bb785a0ad04d87c08b815c62d94d33c5e31c240d6af"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_outputs_match_golden_hashes(case, tmp_path):
    make_doc, trace_sha, summary_sha = RUN_CASES[case]
    scenario = tmp_path / f"{case}.yaml"
    scenario.write_text(yaml.safe_dump(make_doc()), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    assert sha256(out / "trace.csv") == trace_sha
    assert sha256(out / "summary.json") == summary_sha


def test_sweep_output_matches_golden_hash(tmp_path):
    scenario = tmp_path / "mutable_core.yaml"
    scenario.write_text(MUTABLE_CORE, encoding="utf-8")
    out = tmp_path / "out"
    assert main(
        ["sweep", str(scenario), "--param", "kernel.epsilon",
         "--values", "0,0.05,0.2", "--out", str(out)]
    ) == EXIT_OK
    assert sha256(out / "sweep.csv") == SWEEP_SHA256


def grim_pair_doc():
    """A GrimTrigger pair under a symmetric 3-state kernel: a prisoner's
    dilemma, a stag hunt (two pure Nash profiles, no temptation) and a
    lopsided game whose one Nash profile and thresholds tell the miners apart."""
    doc = yaml.safe_load(FIXED_RULES)
    doc["name"] = "grim_pair"
    doc["trigger_on_mutation"] = True
    doc["game"]["states"] += [{"id": 1, "label": "stag_hunt"}, {"id": 2, "label": "lopsided"}]
    doc["game"]["payoffs"]["stag_hunt"] = {
        "CC": [4.0, 4.0], "CD": [0.0, 3.0], "DC": [3.0, 0.0], "DD": [2.0, 2.0],
    }
    doc["game"]["payoffs"]["lopsided"] = {
        "CC": [4.0, 4.0], "CD": [2.0, 5.0], "DC": [3.0, 0.0], "DD": [1.0, 1.0],
    }
    doc["kernel"]["matrix"] = [[0.98, 0.01, 0.01], [0.01, 0.98, 0.01], [0.01, 0.01, 0.98]]
    doc["discount"]["delta"] = 0.9
    return doc


ANALYZE_CASES = {
    "fixed_rules": (
        lambda: yaml.safe_load(FIXED_RULES),
        "6e3706fbf56b14f7d733ae626b350051534ed3b41ca169fe436c16162c0f5c1f",
    ),
    "mutable_core": (
        lambda: yaml.safe_load(MUTABLE_CORE),
        "f6bcc14d8aedbad2bb1661a6d67b20c51edf9b796ebbe04f974b4161a899e7c0",
    ),
    "mutable_core_contest": (
        contest_doc,
        "ed4555938e8bfb0308f7048fe99ac3580b65cc148e4b1f6184f57f5c13fd7ec6",
    ),
    "grim_pair": (
        grim_pair_doc,
        "16f57001a0e6a80ef87647cf6b5d97f9064dc2363e2286a1ef62ef2ba4ae5785",
    ),
}


@pytest.mark.parametrize("case", sorted(ANALYZE_CASES))
def test_analyze_output_matches_golden_hash(case, tmp_path, capsys):
    make_doc, stdout_sha = ANALYZE_CASES[case]
    scenario = tmp_path / f"{case}.yaml"
    scenario.write_text(yaml.safe_dump(make_doc()), encoding="utf-8")
    assert main(["analyze", str(scenario)]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    """``run`` and ``analyze`` on mutable_core write the same bytes under each
    OpenBLAS kernel that ``OPENBLAS_CORETYPE`` selects, each in a child
    process, as OpenBLAS reads the variable when it loads. A BLAS product's
    summation order depends on the kernel: at 0.5.0 the default kernel and
    Sandybridge or Prescott wrote two different summary.json. Where numpy's
    BLAS is not OpenBLAS, the variable has no effect and the test passes
    trivially.
    """
    scenario = tmp_path / "mutable_core.yaml"
    scenario.write_text(MUTABLE_CORE, encoding="utf-8")
    cli = [sys.executable, "-m", "mutagame.cli"]
    outputs = {}
    for coretype in (None, "Prescott", "Sandybridge"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / f"out_{coretype}"
        stdouts = [
            subprocess.run(command, env=env, capture_output=True, check=True, timeout=120).stdout
            for command in ([*cli, "run", str(scenario), "--out", str(out)],
                            [*cli, "analyze", str(scenario)])
        ]
        outputs[coretype] = [sha256(out / "summary.json"), sha256(out / "trace.csv"),
                             *(hashlib.sha256(stdout).hexdigest() for stdout in stdouts)]
    assert outputs["Prescott"] == outputs[None] == outputs["Sandybridge"]


# The bytes of kernel_as_run(...).matrix on contest_doc. The run and analyze
# pins above would not see a last-bit change of a contest weight: at 0.10.0,
# numpy's `**` gave one weight one ulp apart under AVX512 and without it,
# and both wrote the same trace.csv, summary.json and report.
CONTEST_KERNEL_SHA256 = "60f2d34f78c0e451e2697e0ebde192ea80edc095fde94c720b594357e8ac2263"

CPU_MASKS = {
    "default": {},
    "numpy without AVX512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "numpy without AVX2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "glibc without AVX2 and FMA": {
        "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-AVX2,-FMA"},
}


@pytest.mark.parametrize("mask", sorted(CPU_MASKS))
def test_contest_pin_holds_under_every_cpu_dispatch(mask, tmp_path):
    """The contest kernel, ``run`` and ``analyze`` on contest_doc give the
    pinned bytes in a child process whose numpy dispatch or glibc ifunc
    choice the mask narrows. numpy reads ``NPY_DISABLE_CPU_FEATURES`` and
    glibc ``GLIBC_TUNABLES`` when the child starts, so each mask changes
    only that child's dispatch; where it names features the CPU lacks, the
    child runs as without it and the test still passes. The contest powers
    are computed in decimal software arithmetic, so no mask can move them;
    the kernel's child checks that it loaded ``decimal``.
    """
    scenario = tmp_path / "contest.yaml"
    scenario.write_text(yaml.safe_dump(contest_doc()), encoding="utf-8")
    env = {key: value for key, value in os.environ.items()
           if key not in ("NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES")}
    env.update(CPU_MASKS[mask])
    out = tmp_path / "out"
    kernel, _, analyze = (
        subprocess.run([sys.executable, *command], env=env, capture_output=True, check=True,
                       timeout=120).stdout
        for command in (
            ["-c", "import hashlib, sys\n"
                   "from mutagame import kernel_as_run, load_scenario\n"
                   "kernel = kernel_as_run(load_scenario(sys.argv[1])).matrix\n"
                   "print(hashlib.sha256(kernel.tobytes()).hexdigest())\n"
                   "print('decimal' in sys.modules)\n", str(scenario)],
            ["-m", "mutagame.cli", "run", str(scenario), "--out", str(out)],
            ["-m", "mutagame.cli", "analyze", str(scenario)],
        )
    )
    _, trace_sha, summary_sha = RUN_CASES["mutable_core_contest"]
    assert kernel.decode().split() == [CONTEST_KERNEL_SHA256, "True"]
    assert [sha256(out / "trace.csv"), sha256(out / "summary.json")] == [trace_sha, summary_sha]
    assert hashlib.sha256(analyze).hexdigest() == ANALYZE_CASES["mutable_core_contest"][1]


def test_every_pin_holds_under_the_glibc_hwcaps_mask(tmp_path):
    """Every ``run``, ``analyze`` and ``sweep`` pin above, in one child
    process whose glibc picks its ifunc variants (libm's ``exp``, ``log``
    and ``pow`` among them) without AVX2 and FMA. The endogenous discount
    path, the report's NPV and breakeven horizon, the row entropies and
    theta's slow-path normals all read the platform libm; on a CPU without
    these features the child runs as without the mask, and the test passes.
    """
    for command, cases in (("run", RUN_CASES), ("analyze", ANALYZE_CASES)):
        for case, (make_doc, *_) in cases.items():
            path = tmp_path / f"{command}_{case}.yaml"
            path.write_text(yaml.safe_dump(make_doc()), encoding="utf-8")
    (tmp_path / "mutable_core.yaml").write_text(MUTABLE_CORE, encoding="utf-8")
    child = (
        "import contextlib, hashlib, io, json, sys\n"
        "from pathlib import Path\n"
        "from mutagame.cli import main\n"
        "work, runs, analyses = Path(sys.argv[1]), sys.argv[2].split(','), sys.argv[3].split(',')\n"
        "def sha(path):\n"
        "    return hashlib.sha256(path.read_bytes()).hexdigest()\n"
        "def call(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as stdout:\n"
        "        assert main(list(argv)) == 0, argv\n"
        "    return stdout.getvalue()\n"
        "hashes = {}\n"
        "for case in runs:\n"
        "    out = work / f'run_{case}'\n"
        "    call('run', str(work / f'run_{case}.yaml'), '--out', str(out))\n"
        "    hashes[f'run {case}'] = [sha(out / 'trace.csv'), sha(out / 'summary.json')]\n"
        "for case in analyses:\n"
        "    report = call('analyze', str(work / f'analyze_{case}.yaml')).encode()\n"
        "    hashes[f'analyze {case}'] = hashlib.sha256(report).hexdigest()\n"
        "call('sweep', str(work / 'mutable_core.yaml'), '--param', 'kernel.epsilon',\n"
        "     '--values', '0,0.05,0.2', '--out', str(work / 'sweep'))\n"
        "hashes['sweep'] = sha(work / 'sweep' / 'sweep.csv')\n"
        "print(json.dumps(hashes))\n"
    )
    env = {key: value for key, value in os.environ.items()
           if key not in ("NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES")}
    env.update(CPU_MASKS["glibc without AVX2 and FMA"])
    result = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path), ",".join(RUN_CASES), ",".join(ANALYZE_CASES)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    expected = {f"run {case}": [trace, summary] for case, (_, trace, summary) in RUN_CASES.items()}
    expected.update({f"analyze {case}": stdout for case, (_, stdout) in ANALYZE_CASES.items()})
    expected["sweep"] = SWEEP_SHA256
    assert json.loads(result.stdout) == expected
