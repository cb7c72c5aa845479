import numpy as np

from panopticore import core, losses, metrics, postprocess
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


def test_injected_segment_area_fault_named(monkeypatch):
    real_sums = core._sums

    def off_by_one_sums(index, weights, size):
        return real_sums(index, weights, size) + 1

    monkeypatch.setattr(core, "_sums", off_by_one_sums)
    results = {r.name: r for r in run_selftest()}
    assert not results["segment_table_oracle"].passed
    assert "areas differs from np.unique" in results["segment_table_oracle"].detail


def test_injected_joint_histogram_run_fault_named(monkeypatch):
    real_runs = metrics._runs

    def no_last_run(*flats, width=0):
        # Drops the last run's pixels from every count.
        starts, lengths = real_runs(*flats, width=width)
        return starts, np.concatenate([lengths[:-1], [0]])

    monkeypatch.setattr(metrics, "_runs", no_last_run)
    results = {r.name: r for r in run_selftest()}
    assert not results["joint_histogram_oracle"].passed
    assert "differs from joint_histogram_oracle" in results["joint_histogram_oracle"].detail


def test_injected_probability_tie_fault_named(monkeypatch):
    real_labels = postprocess._probability_labels

    def last_channel_labels(probs, ids):
        # Reversed channels: ties go to the highest channel instead.
        return real_labels(probs[..., ::-1], ids[::-1])

    monkeypatch.setattr(postprocess, "_probability_labels", last_channel_labels)
    results = {r.name: r for r in run_selftest()}
    assert not results["probability_labels_oracle"].passed
    assert "labels differ" in results["probability_labels_oracle"].detail


def test_injected_merge_vote_fault_named(monkeypatch):
    real_sums = postprocess._sums

    def double_sums(index, weights, size):
        # Twice every count; the merge's unknown-id column stays 0, so the
        # fault shows as wrong areas, not as an unknown id.
        return real_sums(index, weights, size) * 2

    monkeypatch.setattr(postprocess, "_sums", double_sums)
    results = {r.name: r for r in run_selftest()}
    assert not results["merge_oracle"].passed
    assert "from merge_oracle" in results["merge_oracle"].detail
