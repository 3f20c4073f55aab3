"""Golden digests: what the program computes, pinned byte for byte.

Pinned here:
- the SHA-256 of each CSV and audit log that `uwbpol run` writes for
  fig4/fig5 x seeds 0-2 x honest and the three attacks (each on attempt 0);
- the SHA-256 of the CSV of a 2-value, 10-rep `noise_sigma` sweep;
- one SHA-256 over the exact floats (float.hex) of the `sim.run` reports of
  fig4/fig5 x honest and every attack x seeds 0-9;
- the counts of the safety model's exhaustive exploration.

A change that moves any output fails here, and the failure names what
moved. A change that moves an output on purpose updates the pin in the same
commit and says why. Ledger asset state is not pinned: the ledger's key
layout may change without changing an output.

`PYTHONPATH=src python tests/test_golden.py` prints the current pins in
this file's own literal format, to paste over the old ones.

The digests hold for one toolchain: CPython 3.11.7, `cryptography` 48, and
glibc 2.36's libm on x86-64 Linux. `random.gauss` and `gammavariate` call
libm, and `x**2` differs from `x*x` on some floats, so another toolchain
may differ in the last bit. Such a mismatch fails with the file names; it
is not skipped.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import astuple
from pathlib import Path

import safety_model
from uwbpol import cli, sim

PRESETS = ("fig4", "fig5")
ATTACKS = {
    "honest": None,
    "spoof": {"kind": sim.ATTACK_GNSS_SPOOF, "target_attempt": 0, "offset": {"x": 2.0, "y": 0.0}},
    "identity": {"kind": sim.ATTACK_WRONG_IDENTITY, "target_attempt": 0},
    "replay": {"kind": sim.ATTACK_CODE_REPLAY, "target_attempt": 0},
}

GOLDEN_FILES = {
    "fig4-honest-0.csv": "bccea7636a09e033cc4eb5a48f3964cdb4ca8e7fbb1233d5054927c1153c5e98",
    "fig4-honest-0.log": "b1677e6f2a5126e68dce8c18ef994510fe0d3f6fbcd0480fc101e4e5eebc13d0",
    "fig4-honest-1.csv": "09375282108267eaca5d78a325517e5bc9aa939031183aa3b2b818a7d811ef23",
    "fig4-honest-1.log": "ee8b633593359a9df6a856dd9e381c634b45faa42c120b1aad9de159550cdcf2",
    "fig4-honest-2.csv": "33a852a8dac5ee14c577ea9b56ab56aa85b374b5ee855b6bb5dc1f7b6658b3b4",
    "fig4-honest-2.log": "573a7f40922dd3a034bb9eec1dd51831d4e5dd1026429d1264b7496adeb40241",
    "fig4-identity-0.csv": "5885e9c8f201b7cf45ef1070416c0f3923cebd95b98dcc5bae772a6c6b6cbeae",
    "fig4-identity-0.log": "abedd855f50286891115f40719f2f260698b0c9fc6b3e52609bb6e3ef5b8bfd9",
    "fig4-identity-1.csv": "cc7d6cf0c48d17e492b5799040524932d856e7c92774d4c208823f3ffdc3a377",
    "fig4-identity-1.log": "7d25fe9aa92bc3fb72ed383500e1d8217af1313a0b0ebf4123394e6ca48d2407",
    "fig4-identity-2.csv": "9de611f357ce3b489aef78d81ff7615aa9955e6c061e1afa054dc0d519918591",
    "fig4-identity-2.log": "f711f17e5f1065b3dae42bf6642a159083eb4a6960bb591d96b73ba896c2fd37",
    "fig4-replay-0.csv": "7fc542968c67a8676fdbcede0a86fb4d34e2cd896a67034415b414d0ff0e0ae6",
    "fig4-replay-0.log": "9b16edec5e11d793d084949051f3947b568135e63948f752080f2ffec5a0c048",
    "fig4-replay-1.csv": "132a47e12031474b9747181ae687338bc73b4b8a2461fc10d102b1dd4c802956",
    "fig4-replay-1.log": "b573247fca35f1b883139ce634a814accdd284c8c0d4fd58444c156aa796feea",
    "fig4-replay-2.csv": "fd66858a330156f651f5cef9e4ca0430c59f4a473e652285fa9e4ab7288e1423",
    "fig4-replay-2.log": "3a1d7c61a2ae8826794f6db6a95800768f7fdc4fb9ae62f86b2cc471d604a994",
    "fig4-spoof-0.csv": "299f855c9a7e07b2a6170d9992fa6cb7b13873b922695c0d6f66c82549f1cc06",
    "fig4-spoof-0.log": "8074dbde14c722cd4f43cdec52dba446935f357cac7d14ed66498a6d30ac0db4",
    "fig4-spoof-1.csv": "b5e22ea6f87635285d1897577bcc1d8409ad9adeb4647ededb6d8af9a75013a5",
    "fig4-spoof-1.log": "2261ea07a96217505c8a6413584a0418bbe9ecda8ef0df8848c27c9f8b4cc9df",
    "fig4-spoof-2.csv": "05b5754e4e463549ce94e37f894592f6573444b04a83428857356ed8d7639311",
    "fig4-spoof-2.log": "7fc4b4005bb8d58ac40108ae1c98d357a5538e0271ce881d28b07fec77132400",
    "fig5-honest-0.csv": "43ea5ac9189fab2a2e61856a9449d43d9672a57d6995a88a2e52f5e7ae225d0a",
    "fig5-honest-0.log": "b35025171d1273f30cca4b8574bf0a3a1d24d4b3b64a0203ea005fc2cece43b4",
    "fig5-honest-1.csv": "028498f8a0d32d1144bf49d69236c0d62a769581c9108b8fcd76f64d5c1c57cc",
    "fig5-honest-1.log": "f6caa066847143d5d499919b1c349c61076a1942a4685a1f7fae675db5f2e59a",
    "fig5-honest-2.csv": "4ba8bd0c7268084ac0edebd0822e6d014309cfcd2927ab88a6323edd88ad5237",
    "fig5-honest-2.log": "6440a10dabe1d69ccba7b916e670047160a720bf807ede80c3633c6793b1885c",
    "fig5-identity-0.csv": "ebe28df676c5e0be8d156cb0d817c355dd1147f1c56fdfb72c9557c63c8c4ab2",
    "fig5-identity-0.log": "9e0112b7e63e4065a51656e8b7551f102aa5332c682de017fd90479e5b24de4e",
    "fig5-identity-1.csv": "c979336f6ca803d6944a1e65a3e150ab219c418e3578c28881077804037fcae6",
    "fig5-identity-1.log": "5df06dfad8a8bf96a0c1741e8881482da57a7e45ee7d1d62a834ac579b50a014",
    "fig5-identity-2.csv": "f8dafd3c4cadb3bf350f5461bf17b68bb068ad5eadf5c2c80584d19037ed0111",
    "fig5-identity-2.log": "84e54d9042dc5e365197c979e53fd969fb23b53ec4ef109fabd21b4bfa01dcdf",
    "fig5-replay-0.csv": "77c427b9b8a0d4e474eb1904b15ec6f5ad963233b14633151807329a662022e5",
    "fig5-replay-0.log": "e00799639eb4f847cc026ee65bd57b12a5dbb9b25d501a006c0691335ce1d2b9",
    "fig5-replay-1.csv": "67675c9dc141077f94515335cf66031aeb1d250bf3cb89bd4852595929adfc92",
    "fig5-replay-1.log": "923fd25f723f3d681a77d3be6c547e5f0543638467c83534fd59a375aab8c66f",
    "fig5-replay-2.csv": "5da94efcd84b1aabcf2f95bd0cddd20b0e61cb455e5b7fc9eb46bd80dc6d836f",
    "fig5-replay-2.log": "4483f4681fb504fe5273b4e15eaea51a42704edee1db52c2f7285ddba0eb8f9e",
    "fig5-spoof-0.csv": "e1b3029fee5445cd75a54d72fd8266eb9b1c983db0e409fc57ab575b699a6730",
    "fig5-spoof-0.log": "89c2a2e92edf4b15103ee2d11644715b07edb9b32251a32fd48eee66980e8f05",
    "fig5-spoof-1.csv": "f8a756b14a0b09b2224dbf3673b5b87791767bcadd9fca4c871b371ff69476b7",
    "fig5-spoof-1.log": "5a67bc40fa17f841f30ef6293a8a72ddcec3477475104d501966da58d097e902",
    "fig5-spoof-2.csv": "28e88884f6fa5fa56f7dfc7bb8f000ce420062f489da189c374eacf1c75526ac",
    "fig5-spoof-2.log": "b29791518fc3e2882e06e11b859f2561c8dbee8baf863414ea99bf333c1adda5",
    "sweep-noise_sigma.csv": "6f08bd017d023c4334e20a0fa7b6b7c0a5b0dfad9e4c1a6ad37a8cec7914bd4f",
}

GOLDEN_REPORTS = "4998c03401078a8330873bc3437131b2002f83a08c46d03bc75935972d61f6f5"

GOLDEN_EXPLORATION = (840, 9424, 17, 0)  # states, transitions, authorized, violations


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _document(preset: str, attack: str) -> dict:
    """The preset's scenario document with the attack, as a scenario file holds it."""
    doc = dict(sim._PRESETS[preset])
    if ATTACKS[attack] is not None:
        doc["attack"] = ATTACKS[attack]
    return doc


def _file_digests(tmp_path) -> dict[str, str]:
    """SHA-256 of every file the CLI writes for the pinned runs and sweep."""
    out = {}
    for preset in PRESETS:
        for attack in ATTACKS:
            scenario_path = tmp_path / f"{preset}-{attack}.json"
            scenario_path.write_text(json.dumps(_document(preset, attack)), encoding="utf-8")
            for seed in range(3):
                stem = f"{preset}-{attack}-{seed}"
                csv_path, log_path = tmp_path / f"{stem}.csv", tmp_path / f"{stem}.log"
                assert cli.main(["run", str(scenario_path), "--seed", str(seed),
                                 "--out", str(csv_path), "--audit", str(log_path)]) == cli.EXIT_OK
                out[csv_path.name] = _sha256(csv_path)
                out[log_path.name] = _sha256(log_path)
    sweep_path = tmp_path / "sweep-noise_sigma.csv"
    assert cli.main(["sweep", "--preset", "fig4", "--param", "noise_sigma",
                     "--values", "0.05,0.1", "--reps", "10",
                     "--out", str(sweep_path)]) == cli.EXIT_OK
    out[sweep_path.name] = _sha256(sweep_path)
    return out


def _exact(value) -> str:
    """value spelled out with every float as float.hex, so one ulp shows."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_exact(v) for v in value) + ")"
    return repr(value)


def _reports_digest() -> str:
    digest = hashlib.sha256()
    for preset in PRESETS:
        for attack in ATTACKS:
            scenario = sim.scenario_from_dict(_document(preset, attack))
            for seed in range(10):
                report = sim.run(scenario, seed_override=seed)
                digest.update(_exact((report.scenario_name, report.seed, report.buffer,
                                      [astuple(rec) for rec in report.records])).encode())
                digest.update(b"\n")
    return digest.hexdigest()


def test_run_and_sweep_files(tmp_path):
    got = _file_digests(tmp_path)
    changed = sorted(name for name in got.keys() | GOLDEN_FILES.keys()
                     if got.get(name) != GOLDEN_FILES.get(name))
    assert changed == [], f"outputs that differ from the pin: {changed}"


def test_run_reports_exact():
    assert _reports_digest() == GOLDEN_REPORTS


def _exploration_counts() -> tuple:
    report = safety_model.explore()
    return (report.states, report.transitions, report.authorized_states,
            len(report.violations))


def test_safety_exploration_counts():
    assert _exploration_counts() == GOLDEN_EXPLORATION


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        files = _file_digests(Path(tmp))  # the CLI's summaries go to the discarded buffer
    print("GOLDEN_FILES = {")
    for name in sorted(files):
        print(f'    "{name}": "{files[name]}",')
    print("}\n")
    print(f'GOLDEN_REPORTS = "{_reports_digest()}"\n')
    print(f"GOLDEN_EXPLORATION = {_exploration_counts()}"
          "  # states, transitions, authorized, violations")


if __name__ == "__main__":
    main()
