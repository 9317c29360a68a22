"""Tier-1 lint gate: the repo tree must lint clean, end to end.

This is the "clean-tree run proving zero findings" required alongside the
seeded-violation corpus: a lint regression anywhere in ``src/repro``
(nondeterministic draw, unregistered fast path, misconfigured reference
pipeline) fails the test suite, not just the CLI.
"""

from __future__ import annotations

import ast
from dataclasses import fields

from repro.checks.lint import run_lint
from repro.checks.parity import REQUIRED_FASTPATHS, check_fastpath_parity, repo_root
from repro.checks.registry import registered_fastpaths
from repro.cli import main
from repro.core.config import DaietConfig, TransportTuning
from repro.dataplane.resources import SwitchResources
from repro.netsim.simulator import SimulatorConfig


def _package_trees():
    """``(path relative to src/repro, parsed module)`` for every source file."""
    package = repo_root() / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        yield (
            path.relative_to(package).as_posix(),
            ast.parse(path.read_text(encoding="utf-8")),
        )


class TestCleanTree:
    def test_repo_tree_lints_clean(self):
        report = run_lint()
        assert report.ok, "\n" + report.render()
        assert report.checked == (
            "determinism",
            "fastpath-parity",
            "dataplane-config",
        )

    def test_all_shipped_fastpaths_are_registered(self):
        assert check_fastpath_parity() == []
        registry = set(registered_fastpaths())
        assert REQUIRED_FASTPATHS <= registry
        assert len(REQUIRED_FASTPATHS) == 5
        assert registry == REQUIRED_FASTPATHS

    def test_event_queue_backend_stays_inside_the_scheduler(self):
        # Which backend holds the queue (heap or calendar) and when it
        # migrates is EventScheduler's decision alone: everyone else goes
        # through push_at / push_entry / reserve_seqs / entries_through /
        # peek_entry / pop_entry. The sanitizer checks the backends'
        # structure, so it may look.
        private = {
            "_cal",
            "_queue",
            "_threshold",
            "_cancelled",
            "_activate_calendar",
            "_batch_handlers",
            "_seq",
            "_pending_handles",
        }
        allowed = {"netsim/events.py", "checks/sanitize.py"}
        offenders = []
        for relative, tree in _package_trees():
            if relative in allowed:
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in private:
                    offenders.append(f"{relative}:{node.lineno} .{node.attr}")
        assert offenders == []

    def test_the_data_path_is_observed_not_wrapped(self):
        # Checkers reach the data path through NetworkSimulator.add_observer.
        # Nobody replaces another object's transmit, delivery or send entry,
        # and only the simulator rebuilds its own port maps. (The parent of
        # the change that added this gate had 15 hits: 12 such assignments in
        # checks/sanitize.py, netsim/faults.py and analysis/error_bounds.py,
        # and one _build_port_maps() call in each.)
        wrapped = {"_transmit", "deliver", "send", "send_burst"}
        offenders = []
        for relative, tree in _package_trees():
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr in wrapped
                            and not (
                                isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            )
                        ):
                            offenders.append(f"{relative}:{node.lineno} .{target.attr} =")
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_build_port_maps"
                    and relative != "netsim/simulator.py"
                ):
                    offenders.append(f"{relative}:{node.lineno} ._build_port_maps()")
        assert offenders == []

    def test_switch_device_internals_stay_in_the_device(self):
        # SwitchDevice's private attributes (its bound tables, counters and
        # budgets, its steering helpers) are read in netsim/devices.py and in
        # the burst handler that shares the compiled path
        # (NetworkSimulator._compile_switch_burst), nowhere else: the
        # controller and the fault injector change tables, not the device.
        # (The parent of the change that added this gate had three hits: the
        # steering memo cleared in core/controller.py and both lookup memos
        # cleared in netsim/faults.py.) Forwarding is the switch's own public
        # stage, ProgrammableSwitch.receive, not a device helper.
        from repro.netsim.devices import SwitchDevice

        private = {
            name
            for name in (*vars(SwitchDevice), *vars(SwitchDevice("probe")))
            if name.startswith("_") and not name.startswith("__")
        }
        assert {"_daiet_tbl", "_resolve_steering", "_batch_tree_state"} <= private
        offenders = []
        for relative, tree in _package_trees():
            if relative == "netsim/devices.py":
                continue
            burst_handler: set[int] = set()
            if relative == "netsim/simulator.py":
                for node in ast.walk(tree):
                    if isinstance(node, ast.FunctionDef) and node.name == "_compile_switch_burst":
                        burst_handler = set(range(node.lineno, node.end_lineno + 1))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in private
                    and node.lineno not in burst_handler
                ):
                    offenders.append(f"{relative}:{node.lineno} .{node.attr}")
        assert offenders == []

    def test_one_route_into_a_switch(self):
        # A packet reaches a switch's forwarding stage one way:
        # SwitchDevice.deliver steers a tree's packets into the aggregation
        # engine and hands everything else to ProgrammableSwitch.receive. So
        # src/ makes exactly one .receive( call, there. (The parent of the
        # change that added this gate made six, all in netsim/devices.py:
        # fallbacks from the compiled paths into a generic P4 interpreter.)
        calls = []
        for relative, tree in _package_trees():
            owner: dict[int, str] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            for line in range(item.lineno, item.end_lineno + 1):
                                owner[line] = f"{node.name}.{item.name}"
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "receive"
                ):
                    calls.append((relative, owner.get(node.lineno, "<module>")))
        assert calls == [("netsim/devices.py", "SwitchDevice.deliver")]

    def test_experiment_arms_go_through_the_round_runner(self):
        # experiments/rounds.py is the one place that builds the datagram
        # baseline and sums host and switch counters; a driver is a grid of
        # arms over it. Only a round no runner fits (churn's hotspot: two
        # reducers, trees moved between install and send) may send by hand.
        # (The parent of the change that added this gate had 2 transport
        # constructions, 9 counter scrapes and 7 send_pairs call sites in
        # five drivers.)
        runner_only = {
            "ReliableUdpTransport",
            "listen_reliable",
            "tree_counters",
            "reliability_stats",
        }
        offenders, senders = [], set()
        for relative, tree in _package_trees():
            if not relative.startswith("experiments/"):
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "send_pairs":
                    senders.add(relative)
                elif name in runner_only and relative != "experiments/rounds.py":
                    offenders.append(f"{relative}:{node.lineno} {name}()")
        assert offenders == []
        assert senders <= {"experiments/rounds.py", "experiments/figure_churn.py"}

    def test_hop_reliability_has_one_definition(self):
        # The hop protocol's state lives in core/packet.py: SeenWindow holds
        # the ACK cadence count and the gap-episode flag and builds
        # (cumulative, sack); the RetransmitBuffer holds the
        # resent-since-progress set. The switch
        # engine, the host agent and the datagram transport keep one window
        # per source and no counter of their own, and transport/ builds its
        # WindowedSender in one place (window.sender_on). (The parent of the
        # change that added this gate had 6 + 2 + 2 such definitions in five
        # classes, 3 ack_state() calls and 2 constructions.)
        primitives = "core/packet.py"
        owned = {
            "since_ack",
            "_since_ack",
            "gapped",
            "_gapped",
            "_retransmitted",
        }
        offenders, constructions = [], []
        for relative, tree in _package_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Attribute) and func.attr == "ack_state":
                        if relative != primitives:
                            offenders.append(f"{relative}:{node.lineno} .ack_state()")
                    elif getattr(func, "id", "") == "WindowedSender":
                        if relative.startswith("transport/"):
                            constructions.append(f"{relative}:{node.lineno}")
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    if relative == primitives:
                        continue
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        name = getattr(target, "attr", getattr(target, "id", ""))
                        if name in owned:
                            offenders.append(f"{relative}:{node.lineno} {name} =")
        assert offenders == []
        assert len(constructions) == 1, constructions

    def test_host_stack_has_one_home(self):
        # The end-host shim is DaietSystem's alone: it builds the controller
        # and one reliability agent per host and decides how a reducer's NIC
        # is attached. The MapReduce shuffle and the failover manager go
        # through it (install_job / attach_receiver / send_pairs / agent), so
        # a reliability policy, a fault plan or a tracker reaches every job
        # the same way. (The parent of the change that added this gate had six
        # offenders: the shuffle built a second controller and its own agents,
        # attached its own trees and imported the agent's module twice, and
        # failover attached the re-planned tree for itself.)
        home = "core/daiet.py"
        offenders = []
        for relative, tree in _package_trees():
            if relative == home:
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    if getattr(func, "id", "") == "DaietController":
                        offenders.append(f"{relative}:{node.lineno} DaietController()")
                    elif getattr(func, "attr", "") == "attach_tree":
                        offenders.append(f"{relative}:{node.lineno} .attach_tree()")
                    elif (
                        getattr(func, "attr", "") == "from_config"
                        and getattr(func.value, "id", "") == "HostReliabilityAgent"
                    ):
                        offenders.append(f"{relative}:{node.lineno} agent construction")
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    if relative.startswith("transport/"):
                        continue
                    module = getattr(node, "module", None)
                    for alias in node.names:
                        name = f"{module}.{alias.name}" if module else alias.name
                        if name.startswith("repro.transport.reliability") or (
                            name == "repro.transport.HostReliabilityAgent"
                        ):
                            offenders.append(f"{relative}:{node.lineno} imports the agent")
        assert offenders == []

    def test_every_config_knob_is_set_outside_the_tests(self):
        # A DaietConfig, TransportTuning, SimulatorConfig or SwitchResources
        # field earns its place by an experiment, example or benchmark
        # setting it; a field only the tests set is a dead rule and goes.
        # "Set" means the field's name is a keyword argument or a dict key
        # somewhere in those trees. (The parent of the change that added
        # SimulatorConfig here had two such fields: max_events and
        # auto_install_routes; the parent of the change that added
        # SwitchResources had two more: pipeline_stages and
        # max_recirculations.)
        allowed_unset = {
            "value_width": "the paper's 4 B value; every run keeps the wire format it sizes",
            "sanitize": "None defers to REPRO_SANITIZE, which the CLI's --sanitize sets",
            "sram_bytes": "the paper's SRAM budget; the controller's ledger charges "
            "every tree's registers against it",
            "max_parse_bytes": "the paper's parse budget; the checker's "
            "parser-budget-exceeded rule and the over-budget parse error read it",
            "max_ops_per_packet": "the paper's per-packet op budget; the switch "
            "program's over-budget error reads it",
        }
        root = repo_root()
        trees = [
            root / "src/repro/experiments",
            root / "src/repro/cli.py",
            root / "src/repro/mapreduce",
            root / "examples",
            root / "benchmarks/e2e",
        ]
        named: set[str] = set()
        for tree in trees:
            for path in [tree] if tree.is_file() else sorted(tree.rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.keyword) and node.arg:
                        named.add(node.arg)
                    elif isinstance(node, ast.Dict):
                        named.update(
                            key.value for key in node.keys if isinstance(key, ast.Constant)
                        )
        knobs = {
            f.name
            for cls in (DaietConfig, TransportTuning, SimulatorConfig, SwitchResources)
            for f in fields(cls)
        }
        assert knobs - named == set(allowed_unset)

    def test_cli_lint_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_render_summarises_findings(self):
        report = run_lint()
        assert report.render().endswith(
            "repro lint: clean (determinism, fastpath-parity, dataplane-config)"
        )

    def test_ecmp_has_one_hash(self):
        # The sha256 path index is computed in dataplane/actions.py's
        # ecmp_path_index and nowhere else: route computation (and through
        # it the aggregation-tree builder) and the ECMP group action call it,
        # so a tree's path and a forwarded packet's path cannot drift apart.
        # (The parent of the change that added this gate had its one call in
        # netsim/routing.py, and forwarding read per-host rules built from it.)
        home = ("dataplane/actions.py", "ecmp_path_index")
        found = []
        for relative, tree in _package_trees():
            owner: dict[int, str] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    for line in range(node.lineno, node.end_lineno + 1):
                        owner.setdefault(line, node.name)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "hashlib":
                    found.append((relative, f"from hashlib import line {node.lineno}"))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sha256"
                ):
                    found.append((relative, owner.get(node.lineno, "<module>")))
        assert found == [home]

    def test_the_intern_pool_is_reached_through_its_functions(self):
        # The pool's containers are named in dataplane/interning.py and
        # nowhere else: packetizers and kernels go through intern_key /
        # intern_keys / measure_kids / key_of / crc_of / pool_size, so the
        # pool can be re-homed (ROADMAP item 4) by editing one file. The
        # width and NUL-suffix metadata are numpy arrays, which intern_keys
        # and measure_kids read by kid column.
        containers = {
            "_key_to_kid",
            "_kid_key",
            "_kid_crc",
            "_kid_enc_len",
            "_kid_ends_nul",
        }
        offenders = []
        for relative, tree in _package_trees():
            if relative == "dataplane/interning.py":
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.alias):  # from ... import _kid_key
                    name = node.name
                else:
                    continue
                if name in containers:
                    offenders.append(f"{relative}:{node.lineno} {name}")
        assert offenders == []

    def test_the_kernel_cuts_its_spillover_in_kid_space(self):
        # The register kernel replays its collisions over kids and cuts all
        # of a call's spillover flushes as one window from kid and value
        # columns: _vector_apply neither flushes the bucket a packet at a
        # time nor packetizes pairs. (The parent of the change that added
        # this gate called _flush_spillover, which packetizes the bucket's
        # pairs, once per full bucket.)
        found = []
        for relative, tree in _package_trees():
            if relative != "core/aggregation.py":
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_vector_apply":
                    found += [
                        f"{relative}:{call.lineno} {name}"
                        for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        for name in [getattr(call.func, "attr", getattr(call.func, "id", None))]
                        if name in {"_flush_spillover", "packetize_pairs"}
                    ]
                    found.append("_vector_apply")
        assert found == ["_vector_apply"]

    def test_burst_eligibility_is_one_predicate(self):
        # Whether the register kernel may take a DATA packet is decided at
        # delivery by its source's stream (DaietAggregationEngine._fresh_run)
        # and by the burst plan's shape, nowhere else: the simulator's burst
        # planning and transmit path never ask whether a packet is sequenced
        # or an uplink lossless. (The parent of the change that added this
        # gate had one of each: _plan_burst admitted only `packet.seq is
        # None`, and _transmit_burst only `link.loss_rate == 0.0`.)
        def names(node):
            return {getattr(part, "attr", getattr(part, "id", None)) for part in ast.walk(node)}

        def is_zero(node):
            return isinstance(node, ast.Constant) and node.value == 0

        offenders = []
        for relative, tree in _package_trees():
            if relative != "netsim/simulator.py":
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.Compare):
                    continue
                sides = [node.left, *node.comparators]
                forked = any(
                    isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                    for op in node.ops
                ) and (
                    ("seq" in names(node.left) and any(
                        isinstance(side, ast.Constant) and side.value is None for side in sides
                    ))
                    or ("loss_rate" in names(node) and any(is_zero(side) for side in sides))
                )
                if forked:
                    offenders.append(f"{relative}:{node.lineno} {ast.unparse(node)}")
        assert offenders == []

    def test_host_windows_build_no_packets(self):
        # A partition travels from the packetizer to the register kernel as
        # one PacketWindow; a DaietPacket is built only for a consumer that
        # needs one. So the simulator never asks a packet for its pairs' view,
        # and nothing assembles packets past the validating constructor but
        # the window's materializer and DaietPacket.restamped. A switch flush
        # travels the same way: the engine (core/aggregation.py) never walks
        # a window it cut, so it neither iterates nor list()s what
        # packetize_pairs / packetize_columns return, directly or through a
        # name bound to it. (The parent of the change that widened this gate
        # had one hit: `packets = list(packetize_pairs(...))` in _emit_pairs.)
        allowed = {"PacketWindow.__getitem__", "DaietPacket.restamped"}
        per_packet_views = {"vector_columns", "vector_pairs"}
        packetizers = {"packetize_pairs", "packetize_columns"}
        walkers = {
            "list", "tuple", "set", "sorted", "sum", "iter", "enumerate", "map",
            "filter", "any", "all", "min", "max", "zip", "reversed",
        }

        def called(node):
            func = getattr(node, "func", None)
            return getattr(func, "id", getattr(func, "attr", None))

        def walked_windows(tree):
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.Lambda)):
                    continue
                bound = {
                    target.id
                    for node in ast.walk(function)
                    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
                    and any(called(part) in packetizers for part in ast.walk(node.value))
                    for target in getattr(node, "targets", [getattr(node, "target", None)])
                    if isinstance(target, ast.Name)
                }
                for node in ast.walk(function):
                    if isinstance(node, (ast.For, ast.comprehension)):
                        walked = [node.iter]
                    elif isinstance(node, ast.Starred):
                        walked = [node.value]
                    elif isinstance(node, ast.Call) and called(node) in walkers:
                        walked = node.args
                    else:
                        continue
                    for part in walked:
                        if called(part) in packetizers or getattr(part, "id", None) in bound:
                            yield part.lineno

        def references(node, scope=""):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    yield from references(child, f"{scope}.{child.name}".lstrip("."))
                    continue
                if isinstance(child, ast.alias):  # from ... import _assemble
                    yield scope, child.name, child.lineno
                elif isinstance(child, (ast.Name, ast.Attribute)):
                    yield scope, getattr(child, "attr", getattr(child, "id", None)), child.lineno
                yield from references(child, scope)

        offenders = []
        for relative, tree in _package_trees():
            for scope, name, line in references(tree):
                if name in per_packet_views and relative == "netsim/simulator.py":
                    offenders.append(f"{relative}:{line} {name}")
                if name == "_assemble" and (
                    relative != "core/packet.py" or scope not in allowed
                ):
                    offenders.append(f"{relative}:{line} {scope} {name}")
            if relative == "core/aggregation.py":
                offenders += [f"{relative}:{line} walks a window" for line in walked_windows(tree)]
        assert offenders == []
