"""Golden bytes: the sha256 of fifteen reference artifacts, frozen.

A change that keeps these digests keeps every byte the CLI writes for them:
orbit points, statistics, reports and the embedded replay config.  The first
eight commands are criterion 9's battery; the rest add the geomsum and
factorial walks, both pair-correlation schemas, a linpow second-moment series
and two difference-map level-set measures, the second on geomsum, whose
integer form carries the (alpha - 1) denominator.  A change that moves the
arithmetic on purpose must show that every point agrees within the certified
errors before it updates a digest here.
"""

import hashlib

import pytest

from ppclab.cli import main

_GOLDEN = "1.6180339887498948482045868343656381177"
_SEED = "20260819"
_PAIRCORR_300 = ["paircorr", "--family", "monomial:k=2", "--alpha", "1.5",
                 "--N", "300", "--s", "1"]

ARTIFACTS = [
    pytest.param(
        ["orbit", "--family", "monomial:k=2", "--alpha", "1.5",
         "--N", "400", "--delta", "1e-9"],
        "297545f7a9963435949442f77142f6e9713a8835c5fd515e93477261e184ee9c",
        id="orbit-monomial"),
    pytest.param(
        ["paircorr", "--family", "monomial:k=2", "--alpha", "1.5",
         "--N-list", "125,250", "--s", "1"],
        "8258ec6aa28b078e6a158ebf8abc3ead510ad2b905e219a22114484c24251600",
        id="paircorr-curve"),
    pytest.param(
        ["paircorr", "--family", "kronecker", "--alpha", _GOLDEN,
         "--s", "0.1", "--N", "2000"],
        "10e781f6258041f7157762949d8a00d1bef8d57efb59f027d1e64b8ae1a050b7",
        id="paircorr-kronecker"),
    pytest.param(
        ["discrepancy", "--family", "linpow",
         "--alpha", "1.7320508075688772935", "--N", "1000"],
        "1514f49cd7849dcac1e6f84e05301829fd26decae24a45bcba5d325dad0202aa",
        id="discrepancy-linpow"),
    pytest.param(
        ["hypothesis", "--family", "monomial:k=2", "--a", "1.5", "--b", "2",
         "--n1-max", "60", "--n2-max", "120"],
        "e661e61cb3935b28f8932cd4abae8272b03d32097cd32a8c665e0b01799f5fc4",
        id="hypothesis-monomial"),
    pytest.param(
        ["measure", "--a", "1.1", "--b", "1.3", "--degree", "7",
         "--target-c", "0", "--target-d", "0.125"],
        "c6b0eef96265d3ab8e2f3625ea9919d1990ce1a7b1f08a7d23a1ffb63cce896c",
        id="measure-degree"),
    pytest.param(
        ["second-moment", "--family", "monomial:k=2", "--a", "1.5",
         "--b", "1.6", "--s", "1", "--N-list", "125,250", "--K", "8"],
        "13b7a8b32492356effaf36c17cc45db14574de1fea70b3db75985db6cf0993a0",
        id="second-moment-monomial"),
    pytest.param(
        ["second-moment", "--family", "kronecker", "--a", "1.55",
         "--b", "1.70", "--s", "0.1", "--N-list", "100,200", "--K", "4",
         "--mode", "random", "--seed", _SEED, "--format", "csv"],
        "7a67d17acdd52374b7e59ba48ae25c17c90403bfa692acbf54777e08c7ac36b3",
        id="second-moment-kronecker-csv"),
    pytest.param(
        ["orbit", "--family", "geomsum:k=2", "--alpha", "1.7", "--N", "100"],
        "a9b0a6790b2151f3b79a6b38599d4e399dc2f9bd9685eafd32319e93630682a0",
        id="orbit-geomsum"),
    pytest.param(
        ["orbit", "--family", "factorial", "--alpha", "1.8", "--N", "8"],
        "d2ea1fe6cbff4940557910fa22265f6aeb63da6c8836ee338dbd0e79b56527f7",
        id="orbit-factorial"),
    pytest.param(
        _PAIRCORR_300,
        "0435440974c35ed589086ab88a2875ca02b3c6f907342c409b877afe57201623",
        id="paircorr-result"),
    pytest.param(
        _PAIRCORR_300 + ["--format", "csv"],
        "f01be0e89e13518e033cb7d5fa8086a559907c01d05d74a4be2835ff750b378c",
        id="paircorr-result-csv"),
    pytest.param(
        ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
         "--s", "1", "--N-list", "100,200,400", "--K", "8"],
        "35d1f34a1de35d11f536c6086dc91f0a8d3f3e17eca3f6a9ec3b121296a51a10",
        id="second-moment-linpow"),
    pytest.param(
        ["measure", "--family", "linpow", "--n1", "3", "--n2", "12",
         "--a", "1.5", "--b", "1.6", "--target-c", "0", "--target-d", "0.25"],
        "cf06f2e86d6686f8b1e307a53d7912b1b15ec97a0dea511f40be4963adc280bd",
        id="measure-difference-map"),
    pytest.param(
        ["measure", "--family", "geomsum:k=2", "--n1", "2", "--n2", "3",
         "--a", "1.5", "--b", "2", "--target-c", "0", "--target-d", "0.25"],
        "e48e7f4948bbfb21c58522620203d6704f40af50d52c128b9bf25203ac087130",
        id="measure-geomsum"),
]


@pytest.mark.parametrize("argv, sha256", ARTIFACTS)
def test_artifact_bytes_are_frozen(tmp_path, argv, sha256):
    path = tmp_path / "artifact"
    assert main(argv + ["--threads", "1", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
