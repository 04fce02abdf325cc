"""Spans around calls into gaitkinetics, recorded from outside the package.

``install`` wraps the package's public functions where they are bound in
``gaitkinetics.cli``, ``gaitkinetics.kinematics`` and ``gaitkinetics.signal``
(``decimate`` reaches ``lowpass`` through the latter), so calls the CLI and
the filter stage make between modules open a span; ``cli.main`` is the root
span of a trial.  No program file is
edited.  A span is ``[name, start, end, parent, trial, raised, counts]``;
spans stay in memory and ``Tracer.dump`` writes them when the round ends.
``per_layer`` turns the spans of a run into the per-layer metrics.
"""

import json
import os
import time

TRACED_MODULES = ("cli", "kinematics", "signal")


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _filled(args, result):
    before, after = args[0].missing, result.missing
    return {"samples_filled": int(sum((before[m] & ~after[m]).sum() for m in before))}


def _segment_frames(args, result):
    return {"segment_frames": len(result.segment_ids) * result.n_frames}


def _channel_samples(args, result):
    return {"channel_samples": int(args[0].values.size)}


def _events(args, result):
    return {"events": len(result[0]) + len(result[1])}


def _ds_split(args, result):
    from gaitkinetics.events import DOUBLE_STANCE

    split = [result.analyzed[p.start] for p in result.timeline.phases if p.label == DOUBLE_STANCE]
    return {"ds_split": int(sum(split)), "ds_excluded": len(split) - int(sum(split))}


def _entries(args, result):
    return {"entries": result.n_entries}


def _compared(args, result):
    return {"samples": result.sample_count}


# (defining module, function) -> counts taken from its arguments and result.
# Every public ``write_*`` function bound in ``cli`` is traced as well.
TRACED = {
    ("ingest", "parse_marker_file"): _file_bytes,
    ("ingest", "parse_force_file"): _file_bytes,
    ("ingest", "fill_gaps"): _filled,
    ("kinematics", "com_trajectory"): _segment_frames,
    ("kinematics", "filter_com_trajectory"): None,
    ("signal", "lowpass"): _channel_samples,
    ("signal", "smoothed_acceleration"): _channel_samples,
    ("signal", "decimate"): None,
    ("events", "detect_events_zeni"): _events,
    ("events", "build_timeline"): None,
    ("grf", "total_grf"): None,
    ("grf", "decompose_gait"): _ds_split,
    ("grf", "butterfly"): _entries,
    ("metrics", "compare"): _compared,
}


class Tracer:
    """In-memory spans of one round; ``trial`` tags the spans opened next."""

    def __init__(self):
        self.spans = []
        self.trial = None
        self._open = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.trial, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[6] = count(args, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _traced_functions():
    """{function object: (span name, count)} for every function traced."""
    import importlib

    from gaitkinetics import cli

    table = {}
    for (module, name), count in TRACED.items():
        fn = getattr(importlib.import_module(f"gaitkinetics.{module}"), name)
        table[fn] = (f"{module}.{name}", count)
    for attr, fn in vars(cli).items():
        module = getattr(fn, "__module__", "") or ""
        if attr.startswith("write_") and callable(fn) and module.startswith("gaitkinetics."):
            table[fn] = (f"{module.rsplit('.', 1)[1]}.{attr}", _file_bytes)
    return table


def install(tracer):
    """Wrap the traced functions in the traced modules' namespaces.

    Returns ``cli.main`` wrapped as the root span of a trial.
    """
    import importlib

    table = _traced_functions()
    for module_name in TRACED_MODULES:
        module = importlib.import_module(f"gaitkinetics.{module_name}")
        for attr, fn in list(vars(module).items()):
            if callable(fn) and fn in table:
                name, count = table[fn]
                setattr(module, attr, tracer.wrap(name, fn, count))
    return tracer.wrap("cli.main", importlib.import_module("gaitkinetics.cli").main, None)


# ---------------------------------------------------------------- per-layer

# metric -> span name whose self time it reports
SELF_TIMES = {
    "ingest.parse_marker_s": "ingest.parse_marker_file",
    "ingest.parse_force_s": "ingest.parse_force_file",
    "ingest.fill_gaps_s": "ingest.fill_gaps",
    "kinematics.com_trajectory_s": "kinematics.com_trajectory",
    "kinematics.filter_com_self_s": "kinematics.filter_com_trajectory",
    "signal.lowpass_s": "signal.lowpass",
    "signal.smoothed_acceleration_s": "signal.smoothed_acceleration",
    "signal.decimate_s": "signal.decimate",
    "events.detect_s": "events.detect_events_zeni",
    "events.build_timeline_s": "events.build_timeline",
    "grf.total_grf_s": "grf.total_grf",
    "grf.decompose_s": "grf.decompose_gait",
    "grf.butterfly_s": "grf.butterfly",
    "metrics.compare_s": "metrics.compare",
    "cli.self_s": "cli.main",
}

# metric -> (span name, count key); "calls" and "raised" count spans
COUNTS = {
    "ingest.samples_filled": ("ingest.fill_gaps", "samples_filled"),
    "kinematics.segment_frames": ("kinematics.com_trajectory", "segment_frames"),
    "kinematics.com_trajectory_raised": ("kinematics.com_trajectory", "raised"),
    "signal.lowpass_calls": ("signal.lowpass", "calls"),
    "signal.lowpass_channel_samples": ("signal.lowpass", "channel_samples"),
    "signal.smoothed_acceleration_samples": ("signal.smoothed_acceleration", "channel_samples"),
    "events.events_detected": ("events.detect_events_zeni", "events"),
    "grf.ds_split": ("grf.decompose_gait", "ds_split"),
    "grf.ds_excluded": ("grf.decompose_gait", "ds_excluded"),
    "grf.butterfly_entries": ("grf.butterfly", "entries"),
    "metrics.samples_compared": ("metrics.compare", "samples"),
}


def _is_writer(name):
    return name.split(".", 1)[1].startswith("write_")


def per_layer(spans, n_trials):
    """Per-trial means of self times and counts over ``n_trials`` traced trials.

    Self time is a span's duration minus the durations of its direct
    children (spans run one at a time, so children never overlap).
    """
    self_s, counts = {}, {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _trial, _raised, _counts in spans:
        if parent is not None:
            child[parent] += end - start
    for i, (name, start, end, _parent, _trial, raised, extra) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        tally = counts.setdefault(name, {})
        tally["calls"] = tally.get("calls", 0) + 1
        tally["raised"] = tally.get("raised", 0) + int(raised)
        for key, value in (extra or {}).items():
            tally[key] = tally.get(key, 0) + value

    def per_trial(value):
        return value / n_trials

    out = {}
    for metric, name in SELF_TIMES.items():
        out[metric] = (per_trial(self_s.get(name, 0.0)), "s")
    for metric, (name, key) in COUNTS.items():
        out[metric] = (per_trial(counts.get(name, {}).get(key, 0)), "count")
    parse_s = sum(self_s.get(n, 0.0) for n in ("ingest.parse_marker_file", "ingest.parse_force_file"))
    parsed = sum(
        counts.get(n, {}).get("bytes", 0)
        for n in ("ingest.parse_marker_file", "ingest.parse_force_file")
    )
    out["ingest.parse_mb_per_s"] = (parsed / 1e6 / parse_s if parse_s else 0.0, "MB/s")
    writers = [n for n in self_s if _is_writer(n)]
    out["grf.write_s"] = (per_trial(sum(self_s[n] for n in writers)), "s")
    out["grf.bytes_written"] = (per_trial(sum(counts[n].get("bytes", 0) for n in writers)), "count")
    return out
