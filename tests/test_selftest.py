import numpy as np

from panopticore import losses, postprocess
from panopticore.cli import main
from panopticore.selftest import run_selftest


def test_fresh_build_passes():
    results = run_selftest()
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_selftest_command_exit_zero():
    assert main(["selftest"]) == 0


def test_injected_nms_fault_named(monkeypatch, capsys):
    real_nms = postprocess.keypoint_nms

    def off_by_one_nms(heatmap, kernel=7):
        # Wrong window: compares against a shifted neighborhood.
        out = real_nms(heatmap, kernel)
        return np.roll(out, 1, axis=0)

    monkeypatch.setattr(postprocess, "keypoint_nms", off_by_one_nms)
    results = {r.name: r for r in run_selftest()}
    assert not results["nms_bruteforce"].passed
    assert "mismatch" in results["nms_bruteforce"].detail


def test_injected_fault_nonzero_exit(monkeypatch, capsys):
    real_group = postprocess.group_pixels

    def biased_group(centers, offsets, thing_mask):
        out = real_group(centers, offsets, thing_mask)
        out[thing_mask] += 1  # off-by-one instance index
        return out

    monkeypatch.setattr(postprocess, "group_pixels", biased_group)
    assert main(["selftest"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_injected_ce_tie_fault_named(monkeypatch):
    real_ce = losses.weighted_bootstrapped_ce

    def last_first_ce(logits, labels, weights, ignore_label, top_k_fraction=0.15,
                      with_gradient=True):
        # Reversed grid: ties at the K-th loss go to the last pixels instead.
        flip = (slice(None, None, -1), slice(None, None, -1))
        out = real_ce(logits[flip], labels[flip], weights[flip], ignore_label,
                      top_k_fraction, with_gradient)
        return losses.LossValue(out.value, out.gradient[flip])

    monkeypatch.setattr(losses, "weighted_bootstrapped_ce", last_first_ce)
    results = {r.name: r for r in run_selftest()}
    assert not results["bootstrapped_ce_oracle"].passed
    assert "gradient differs" in results["bootstrapped_ce_oracle"].detail
