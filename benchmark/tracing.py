"""Per-layer tracing of cycleadapt from outside the package.

:class:`Tracer` replaces public functions and methods of each module with
wrappers that record a span (name, start, end, parent, attributes). Each
name is patched where its caller looks it up: ``trainer`` imports
``total_loss``, ``build_suite``, ``evaluate`` and ``train`` by name, and
``cli`` imports the data, checkpoint and training functions by name.
Spans stay in memory; :meth:`Tracer.write` stores them when the run ends
and :func:`layer_metrics` reduces them to the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import time
from collections import defaultdict

from cycleadapt.models import NETWORK_ORDER
from cycleadapt.trainer import ABLATION_MODES

from checks import walk_graph

EVAL_SPANS = ("trainer.evaluate", "trainer.domain_disc_mean_out")
CSV_SPANS = ("data.save_pair_csv", "data.load_pair_csv", "data.load_domain_csv")
CLI_COMMANDS = ("gen", "train", "eval")


def count_nodes(loss) -> int:
    """Recorded ops reachable from ``loss`` through its parents."""
    return sum(node._backward is not None for node in walk_graph(loss))


class Tracer:
    """Records spans while :attr:`active`; wrappers pass straight through
    otherwise, so checks run between timed rounds stay out of the trace."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, attrs]
        self.active = False
        self._name_index: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._networks: dict[int, tuple[str, object]] = {}
        self._count_next_loss = False

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, attrs) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([idx, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def patch(self, owner, attr: str, name, attrs=None, after=None) -> None:
        """Wrap ``owner.attr``. ``name`` is a string or a function of the
        call's arguments; ``attrs`` maps the arguments to span attributes;
        ``after(span, result)`` may add attributes from the result."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args)
            sid = tracer._open(span_name, attrs(args) if attrs else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(tracer.spans[sid], result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the layers of cycleadapt -----------------------------------------

    def install(self) -> None:
        from cycleadapt import autodiff, cli, data, models, nn, trainer

        def after_suite(span, suite):
            for net in NETWORK_ORDER:
                mlp = getattr(suite, net)
                # the suite is kept alive so its id is never reused
                self._networks[id(mlp)] = (f"models.{net}.forward", mlp)

        def network_name(args):
            entry = self._networks.get(id(args[0]))
            return entry[0] if entry else "models.other.forward"

        def before_train(args):
            self._count_next_loss = True
            return {"mode": args[0].ablation_mode, "steps": args[0].total_steps}

        def after_loss(span, result):
            if self._count_next_loss:
                self._count_next_loss = False
                span[4] = {"nodes": count_nodes(result[0])}

        def rows_of_pair(span, pair):
            span[4] = {"rows": len(pair.x_s) + len(pair.x_t)}

        self.patch(autodiff.Tensor, "backward", "autodiff.backward")
        self.patch(trainer, "total_loss", "losses.total_loss", after=after_loss)
        self.patch(trainer, "build_suite", "models.build_suite", after=after_suite)
        self.patch(nn.Mlp, "forward_logits", network_name)
        self.patch(models, "condition", "conditioning.condition")
        self.patch(nn.Sgd, "step", "nn.Sgd.step")
        self.patch(trainer.BatchStream, "next", "trainer.BatchStream.next")
        for owner in (trainer, cli):
            self.patch(owner, "evaluate", "trainer.evaluate",
                       attrs=lambda a: {"rows": len(a[1])})
            self.patch(owner, "train", "trainer.train", attrs=before_train)
        self.patch(trainer, "domain_disc_mean_out", "trainer.domain_disc_mean_out")
        self.patch(trainer, "ablation_run", "trainer.ablation_run")
        self.patch(cli, "save_checkpoint", "trainer.save_checkpoint")
        self.patch(cli, "load_checkpoint", "trainer.load_checkpoint")
        self.patch(data, "gen_two_moons_pair", "data.gen")
        self.patch(cli, "gen_two_moons_pair", "data.gen")
        self.patch(cli, "gen_gaussian_shift_pair", "data.gen")
        self.patch(cli, "save_pair_csv", "data.save_pair_csv",
                   attrs=lambda a: {"rows": len(a[0].x_s) + len(a[0].x_t)})
        self.patch(cli, "load_pair_csv", "data.load_pair_csv", after=rows_of_pair)
        self.patch(data, "_load_domain_csv", "data.load_domain_csv",
                   after=lambda span, r: span.__setitem__(4, {"rows": len(r[0])}))
        self.patch(cli, "main", lambda a: f"cli.{a[0][0]}")
        self.patch(subprocess, "run", "subprocess.run")

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Store the spans as gzipped JSON: span names, then one
        [name index, start, end, parent index, attributes] per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, rounds: int) -> tuple[dict[str, tuple[float, str]], float]:
    """Reduce the spans to the per-layer metrics: name -> (value, unit),
    and the share of training-step time (evaluation excluded) that the
    step's layer spans cover.

    "Per step" divides by the training steps of every ``train`` call in
    the trace. Network, conditioning and node counts are taken inside
    ``total_loss`` only, so evaluation passes are not counted as steps.
    A layer the workload does not run reads 0.
    """
    names = tracer.names
    spans = tracer.spans
    n = len(spans)
    name_of = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    in_loss = [False] * n
    train_of = [-1] * n
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            in_loss[i] = in_loss[p] or name_of[p] == "losses.total_loss"
            train_of[i] = p if name_of[p] == "trainer.train" else train_of[p]

    steps = 0
    steps_by_mode: dict[str, int] = defaultdict(int)
    for i in range(n):
        if name_of[i] == "trainer.train":
            steps += spans[i][4]["steps"]
            steps_by_mode[spans[i][4]["mode"]] += spans[i][4]["steps"]

    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    eval_in_train: dict[int, float] = defaultdict(float)
    nodes_weighted = 0
    eval_rows = 0
    csv_rows = 0
    csv_time = 0.0
    direct_children: dict[int, float] = defaultdict(float)
    subprocesses = 0
    for i in range(n):
        nm, d, attrs = name_of[i], dur[i], spans[i][4]
        p = spans[i][3]
        key = f"{nm}@step" if in_loss[i] else nm
        total[key] += d
        calls[key] += 1
        if nm in EVAL_SPANS and train_of[i] >= 0:
            eval_in_train[train_of[i]] += d
        if nm == "trainer.evaluate":
            eval_rows += attrs["rows"]
        if nm == "losses.total_loss" and attrs and train_of[i] >= 0:
            nodes_weighted += attrs["nodes"] * spans[train_of[i]][4]["steps"]
        top_level_csv = p < 0 or name_of[p] not in CSV_SPANS
        if nm in CSV_SPANS and top_level_csv:
            csv_rows += attrs["rows"]
            csv_time += d
        if nm == "subprocess.run":
            subprocesses += 1
        elif p >= 0 and name_of[p].startswith("cli."):
            direct_children[p] += d

    def per_step(x: float) -> float:
        return x / steps if steps else 0.0

    def mean_ms(key: str) -> float:
        return 1e3 * total[key] / calls[key] if calls[key] else 0.0

    m: dict[str, tuple[float, str]] = {
        "autodiff.nodes_per_step": (per_step(nodes_weighted), "count"),
        "autodiff.backward_ms_per_step": (per_step(1e3 * total["autodiff.backward"]), "ms"),
        "losses.total_loss_ms_per_step": (per_step(1e3 * total["losses.total_loss"]), "ms"),
    }
    for net in NETWORK_ORDER:
        key = f"models.{net}.forward@step"
        m[f"models.{net}.forward_ms_per_step"] = (per_step(1e3 * total[key]), "ms")
        m[f"models.{net}.calls_per_step"] = (per_step(calls[key]), "count")
    m["conditioning.condition_ms_per_step"] = (
        per_step(1e3 * total["conditioning.condition@step"]), "ms")
    m["nn.sgd_step_ms_per_step"] = (per_step(1e3 * total["nn.Sgd.step"]), "ms")
    m["trainer.batch_ms_per_step"] = (per_step(1e3 * total["trainer.BatchStream.next"]), "ms")
    m["trainer.evaluate_ms_per_step"] = (per_step(1e3 * sum(eval_in_train.values())), "ms")
    eval_time = total["trainer.evaluate"]
    m["trainer.evaluate_rows_per_s"] = (eval_rows / eval_time if eval_time else 0.0, "rows/s")
    mode_time: dict[str, float] = defaultdict(float)
    for i in range(n):
        if name_of[i] == "trainer.train":
            mode_time[spans[i][4]["mode"]] += dur[i] - eval_in_train[i]
    for mode in ABLATION_MODES:
        s = steps_by_mode[mode]
        m[f"trainer.step_ms.{mode}"] = (1e3 * mode_time[mode] / s if s else 0.0, "ms")
    m["trainer.save_checkpoint_ms"] = (mean_ms("trainer.save_checkpoint"), "ms")
    m["trainer.load_checkpoint_ms"] = (mean_ms("trainer.load_checkpoint"), "ms")
    m["data.gen_ms"] = (mean_ms("data.gen"), "ms")
    m["data.save_pair_csv_ms"] = (mean_ms("data.save_pair_csv"), "ms")
    m["data.load_pair_csv_ms"] = (mean_ms("data.load_pair_csv"), "ms")
    m["data.csv_rows_per_s"] = (csv_rows / csv_time if csv_time else 0.0, "rows/s")
    for cmd in CLI_COMMANDS:
        key = f"cli.{cmd}"
        own = [dur[i] - direct_children[i] for i in range(n) if name_of[i] == key]
        m[f"cli.{cmd}.self_ms"] = (1e3 * sum(own) / len(own) if own else 0.0, "ms")
    m["cli.subprocesses"] = (subprocesses / rounds if rounds else 0.0, "count")
    step_layers = ("losses.total_loss", "autodiff.backward", "nn.Sgd.step",
                   "trainer.BatchStream.next")
    step_time = sum(mode_time.values())
    covered = sum(total[k] for k in step_layers) / step_time if step_time else 0.0
    return m, covered
