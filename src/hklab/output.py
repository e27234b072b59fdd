"""CSV/JSON emission with value-exact round-trip.

Every file starts with (or contains) the config fingerprint so that
artifacts from different configs cannot be mixed silently.  Floats are
written with repr, the shortest digit string that parses back to the
identical double; line endings are LF regardless of platform.

samples.csv   one row per walks.HittingSample: run_index, hit,
              t_hit_or_horizon, censored, d_v_end; d_v_end is the
              sample's end_value, d_V for hk runs and the oracle's end
              statistic for walk and projected runs
survival.csv  the censoring-aware survival curve on its time grid:
              t, survival, n_at_risk
summary.json  ensemble summary plus fingerprint and tool version
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .ensemble import SurvivalCurve

FINGERPRINT_PREFIX = "# config_fingerprint="

SAMPLE_COLUMNS = ("run_index", "hit", "t_hit_or_horizon", "censored", "d_v_end")

SURVIVAL_COLUMNS = ("t", "survival", "n_at_risk")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_samples(path, samples, fingerprint: str) -> None:
    """One line per sample; no field ever needs csv quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{FINGERPRINT_PREFIX}{fingerprint}\n")
        fh.write(",".join(SAMPLE_COLUMNS) + "\n")
        fh.writelines(
            f"{int(s.run_index)},{int(s.hit)},{int(s.t_end)},{int(not s.hit)},"
            f"{float(s.end_value)!r}\n"
            for s in samples
        )


def write_survival(path, curve: SurvivalCurve, fingerprint: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{FINGERPRINT_PREFIX}{fingerprint}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SURVIVAL_COLUMNS)
        for t, s, r in zip(curve.times, curve.values, curve.n_at_risk):
            writer.writerow([_fmt(t), _fmt(s), _fmt(r)])


def write_summary(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _read_tagged_csv(path, columns):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith(FINGERPRINT_PREFIX):
            raise ValueError(f"{path}: missing config fingerprint line")
        fingerprint = first[len(FINGERPRINT_PREFIX):]
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != columns:
            raise ValueError(f"{path}: unexpected columns {header}, want {columns}")
        rows = [row for row in reader if row]
    return fingerprint, rows


def read_samples(path):
    """(fingerprint, rows) with native-typed row dicts."""
    fingerprint, raw = _read_tagged_csv(path, SAMPLE_COLUMNS)
    rows = [
        {
            "run_index": int(r[0]),
            "hit": bool(int(r[1])),
            "t_hit_or_horizon": int(r[2]),
            "censored": bool(int(r[3])),
            "d_v_end": float(r[4]),
        }
        for r in raw
    ]
    return fingerprint, rows


def read_survival(path):
    fingerprint, raw = _read_tagged_csv(path, SURVIVAL_COLUMNS)
    t = np.array([int(r[0]) for r in raw], dtype=np.int64)
    s = np.array([float(r[1]) for r in raw])
    n = np.array([int(r[2]) for r in raw], dtype=np.int64)
    return fingerprint, (t, s, n)


def read_summary(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
