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

The digests hold for one toolchain: CPython 3.11.7, `cryptography` 48, and
glibc 2.36's libm on x86-64 Linux. `random.gauss` and `gammavariate` call
libm, and `x**2` differs from `x*x` on some floats, so another toolchain
may differ in the last bit. Such a mismatch fails with the file names; it
is not skipped.
"""

import hashlib
import json
from dataclasses import astuple

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
    "fig4-honest-0.log": "472f16d97a24aa395ee10d3ca4ca1ffe169d5722bc36fed64b91c458ad84965a",
    "fig4-honest-1.csv": "09375282108267eaca5d78a325517e5bc9aa939031183aa3b2b818a7d811ef23",
    "fig4-honest-1.log": "2fe2f2a8c03acb515862dae6292887eaa8cce8484567af4f06d9c5e458b4a860",
    "fig4-honest-2.csv": "33a852a8dac5ee14c577ea9b56ab56aa85b374b5ee855b6bb5dc1f7b6658b3b4",
    "fig4-honest-2.log": "f73858441bfe4a64c472ea05da0aeb6b0a3c2f47b3639d9cd66c61f19670dfaa",
    "fig4-identity-0.csv": "5885e9c8f201b7cf45ef1070416c0f3923cebd95b98dcc5bae772a6c6b6cbeae",
    "fig4-identity-0.log": "7834ac5866187d5f4f5ea15af9eb4ac95729c07c8ebfc04e863ec49fb6b372d5",
    "fig4-identity-1.csv": "cc7d6cf0c48d17e492b5799040524932d856e7c92774d4c208823f3ffdc3a377",
    "fig4-identity-1.log": "1de500a447df870015392b28dd3323e8784a8321fb480e1455ed0eb7cd8f2f0f",
    "fig4-identity-2.csv": "9de611f357ce3b489aef78d81ff7615aa9955e6c061e1afa054dc0d519918591",
    "fig4-identity-2.log": "3ff300f26097054605768d32f4dd0e363faa4762bd4582e9a0a9dd9362f6bed5",
    "fig4-replay-0.csv": "7fc542968c67a8676fdbcede0a86fb4d34e2cd896a67034415b414d0ff0e0ae6",
    "fig4-replay-0.log": "75f4dda37adebf29a6a9f6eb994fc7db537de2a8c73fe3963a5e73c40ed4e04d",
    "fig4-replay-1.csv": "132a47e12031474b9747181ae687338bc73b4b8a2461fc10d102b1dd4c802956",
    "fig4-replay-1.log": "6279fb1059169de7beb927d50a3ea4724696191f30140d1732f968b0d32d2f11",
    "fig4-replay-2.csv": "fd66858a330156f651f5cef9e4ca0430c59f4a473e652285fa9e4ab7288e1423",
    "fig4-replay-2.log": "61cfa33efed8b359dd7a7b9751c34205533997e6e2fb03afc401b44f7fdc0659",
    "fig4-spoof-0.csv": "299f855c9a7e07b2a6170d9992fa6cb7b13873b922695c0d6f66c82549f1cc06",
    "fig4-spoof-0.log": "f1d357a9ac8a945a2f0cb5418c10432c1a38337a0806d739fa98b4cf820ce33c",
    "fig4-spoof-1.csv": "b5e22ea6f87635285d1897577bcc1d8409ad9adeb4647ededb6d8af9a75013a5",
    "fig4-spoof-1.log": "ef2c117d0193a1389cd7bdc4cd126d33d7f71658a6ca4fdccefe961543517589",
    "fig4-spoof-2.csv": "05b5754e4e463549ce94e37f894592f6573444b04a83428857356ed8d7639311",
    "fig4-spoof-2.log": "3f4a4cdbb8e49d2c327fb807c6983c16de536d7a9f42d6fc9fc3805579a0a3cb",
    "fig5-honest-0.csv": "43ea5ac9189fab2a2e61856a9449d43d9672a57d6995a88a2e52f5e7ae225d0a",
    "fig5-honest-0.log": "6995b429cb2eec1c0b832fd26f07fb0c66bdadc9a5677e35c711501a03ee18b9",
    "fig5-honest-1.csv": "028498f8a0d32d1144bf49d69236c0d62a769581c9108b8fcd76f64d5c1c57cc",
    "fig5-honest-1.log": "c702e753cf63f567b9d3bb6d1c0a05771c1796b4c5457ac3a66236ab5828cdb1",
    "fig5-honest-2.csv": "4ba8bd0c7268084ac0edebd0822e6d014309cfcd2927ab88a6323edd88ad5237",
    "fig5-honest-2.log": "a32a489a1e9417c6dd2cbb081aa6f7d0fa784a5b4a3b42baf7fe2e5c99666f01",
    "fig5-identity-0.csv": "ebe28df676c5e0be8d156cb0d817c355dd1147f1c56fdfb72c9557c63c8c4ab2",
    "fig5-identity-0.log": "58e89700809815a0a57efd6f7d9b4fbd3a00bcf5c9acbba0e69f3fc261047bfc",
    "fig5-identity-1.csv": "c979336f6ca803d6944a1e65a3e150ab219c418e3578c28881077804037fcae6",
    "fig5-identity-1.log": "cddac318949990d0cb357dd131760739e2f480459fb12ad44727022f5d27638d",
    "fig5-identity-2.csv": "f8dafd3c4cadb3bf350f5461bf17b68bb068ad5eadf5c2c80584d19037ed0111",
    "fig5-identity-2.log": "ce3e928674e3f8ede353679509edf8a88ecf84e6b32fb7f69e8eaa8427c76c57",
    "fig5-replay-0.csv": "77c427b9b8a0d4e474eb1904b15ec6f5ad963233b14633151807329a662022e5",
    "fig5-replay-0.log": "d27e8ea2baa6678994644d9544e543cc52c83270a6e6ce04182cbf3e4985d95d",
    "fig5-replay-1.csv": "67675c9dc141077f94515335cf66031aeb1d250bf3cb89bd4852595929adfc92",
    "fig5-replay-1.log": "cb879c7da9d3c9fa40d8c73b9e178f82374bf4113ee46c3033c28a1a8e1df99e",
    "fig5-replay-2.csv": "5da94efcd84b1aabcf2f95bd0cddd20b0e61cb455e5b7fc9eb46bd80dc6d836f",
    "fig5-replay-2.log": "635cd099edfbc5671e12d45ccdeffa91daae34297b9c075edc7a8275b5002319",
    "fig5-spoof-0.csv": "e1b3029fee5445cd75a54d72fd8266eb9b1c983db0e409fc57ab575b699a6730",
    "fig5-spoof-0.log": "f2d5f7ab0d5dd2d9ff255161152bff971b502e9f23826aba43c07bf62e10fc30",
    "fig5-spoof-1.csv": "f8a756b14a0b09b2224dbf3673b5b87791767bcadd9fca4c871b371ff69476b7",
    "fig5-spoof-1.log": "099ac01c746f75f7c1c8c9f873c8cfa8e0440b1605ec482d1b388fe297eab4f7",
    "fig5-spoof-2.csv": "28e88884f6fa5fa56f7dfc7bb8f000ce420062f489da189c374eacf1c75526ac",
    "fig5-spoof-2.log": "551366f2405e6fb44f43eebc36f95e023ed1ab228945a242221df5bf96964e0e",
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


def test_safety_exploration_counts():
    report = safety_model.explore()
    assert (report.states, report.transitions, report.authorized_states,
            len(report.violations)) == GOLDEN_EXPLORATION
