"""Match-action tables and flow rules.

A P4 program declares tables; the control plane populates them with entries at
run time ("the controller can configure a P4 data plane by pushing flow rules
to a set of tables", Section 5). This module models exact-match tables, their
declared action sets and the :class:`FlowRule` representation that the
controller pushes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.errors import TableError
from repro.dataplane.actions import EcmpAction, ForwardAction

#: Immutable actions: a batch binds one instance to every rule with the same
#: action and parameters.
_SHARED_ACTIONS = (ForwardAction, EcmpAction)


def _canonical_key(match: Mapping[str, Any]) -> tuple | None:
    """Hashable canonical form of an exact-match key (``None`` if unhashable).

    Items are ordered by field name so the form is independent of dict
    insertion order; field names are unique, so values never take part in the
    sort comparison.
    """
    try:
        key = tuple(sorted(match.items(), key=_item_field))
        hash(key)
    except TypeError:
        return None
    return key


def _item_field(item: tuple[str, Any]) -> str:
    return item[0]


@dataclass(frozen=True)
class FlowRule:
    """A single control-plane rule destined for one table on one switch.

    Parameters
    ----------
    table:
        Name of the table the rule belongs to.
    match:
        Mapping from match-field name to the value to match.
    action_name:
        Name of the action to run, resolved against the table's registered
        action set.
    action_params:
        Parameters bound to the action when the rule is installed.
    """

    table: str
    match: tuple[tuple[str, Any], ...]
    action_name: str
    action_params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        table: str,
        match: Mapping[str, Any],
        action_name: str,
        action_params: Mapping[str, Any] | None = None,
    ) -> "FlowRule":
        """Build a rule from plain dictionaries (hashable canonical form)."""
        return cls(
            table=table,
            match=tuple(sorted(match.items())),
            action_name=action_name,
            action_params=tuple(sorted((action_params or {}).items())),
        )

    def params_dict(self) -> dict[str, Any]:
        """The action parameters as a dictionary."""
        return dict(self.action_params)


@dataclass(slots=True)
class TableEntry:
    """An installed table entry: match key and bound action."""

    match: dict[str, Any]
    action: Any


class MatchActionTable:
    """An exact-match match-action table.

    Parameters
    ----------
    name:
        Table name (used by :class:`FlowRule` routing).
    match_fields:
        Names of the fields this table matches on.
    max_entries:
        Capacity of the table (TCAM/SRAM entries are a scarce resource).
    actions:
        The table's declared action set, ``name -> kind``. When given,
        :meth:`register_action` binds only a declared name, to its kind (the
        class itself or an instance of it), and refuses anything else, so no
        rule can install another action. ``None`` leaves the set open.
    """

    def __init__(
        self,
        name: str,
        match_fields: Iterable[str],
        max_entries: int = 4096,
        actions: Mapping[str, type] | None = None,
    ) -> None:
        self.name = name
        self.match_fields = tuple(match_fields)
        if not self.match_fields:
            raise TableError(f"table {name!r} must declare at least one match field")
        self.max_entries = max_entries
        self._declared = None if actions is None else dict(actions)
        self._entries: list[TableEntry] = []
        self._actions: dict[str, Any] = {}
        self.hit_count = 0
        self.miss_count = 0
        # Entries live in a dict keyed by their canonical (sorted-by-field)
        # item tuple, so a lookup is O(1) instead of a scan over every
        # installed entry. Match values must therefore be hashable: install
        # rejects any other with a TableError.
        self._exact_index: dict[tuple, TableEntry] = {}
        #: The address plan of a single-field table: maps a match value to
        #: the key of the aggregate entry covering it (a host to its rack
        #: prefix). A lookup that misses the value itself probes that key
        #: once more. The control plane hands every switch the same mapping.
        self.address_plan: Mapping[Any, Any] | None = None
        #: Bumped on every control-plane mutation.
        self.version = 0
        self._single_field = self.match_fields[0] if len(self.match_fields) == 1 else None

    def register_action(self, name: str, action: Any) -> None:
        """Make an action available to flow rules under ``name``.

        ``action`` is a class, instantiated per rule with the rule's
        parameters, or an instance every rule shares.
        """
        declared = self._declared
        if declared is not None:
            kind = declared.get(name)
            if kind is None or not (action is kind or isinstance(action, kind)):
                allowed = ", ".join(f"{n} ({k.__name__})" for n, k in declared.items())
                raise TableError(
                    f"table {self.name!r} cannot bind {name!r} to {action!r}: "
                    f"its declared actions are {allowed}"
                )
        self._actions[name] = action

    def set_address_plan(self, plan: Mapping[Any, Any] | None) -> None:
        """Install the covering-key map a missed lookup falls back to."""
        if plan is not None and self._single_field is None:
            raise TableError(
                f"table {self.name!r}: an address plan needs a single-field table"
            )
        self.address_plan = plan
        self.version += 1

    def install(self, rule: FlowRule) -> TableEntry:
        """Install a control-plane rule, returning the created entry."""
        return self.install_batch((rule,))[0]

    def install_batch(self, rules: Iterable[FlowRule]) -> list[TableEntry]:
        """Install a rule set pushed as one batch, all or nothing.

        Table name, capacity, match fields, action resolution, hashable
        match values and duplicates (inside the batch and against the
        installed entries) are checked for every rule before anything is
        mutated, so a rejected batch leaves the entries and ``version``
        untouched. Rules with the same immutable action
        (:class:`ForwardAction` out of one port, :class:`EcmpAction` over one
        member set) share one instance, and ``version`` is bumped once;
        entries and lookups are otherwise those of one :meth:`install` per
        rule, in order.
        """
        rules = tuple(rules)
        name = self.name
        for rule in rules:
            if rule.table != name:
                raise TableError(
                    f"rule for table {rule.table!r} installed into table {name!r}"
                )
        if len(self._entries) + len(rules) > self.max_entries:
            raise TableError(
                f"table {name!r} is full ({self.max_entries} entries): "
                f"{len(self._entries)} installed, {len(rules)} more requested"
            )
        fields = set(self.match_fields)
        exact_index = self._exact_index
        shared: dict[tuple, Any] = {}
        entries: list[TableEntry] = []
        indexed: dict[tuple, TableEntry] = {}
        for rule in rules:
            match = dict(rule.match)
            if not match.keys() >= fields:
                raise TableError(
                    f"rule for table {name!r} missing match fields "
                    f"{sorted(fields - match.keys())}"
                )
            if self._actions.get(rule.action_name) in _SHARED_ACTIONS:
                key = (rule.action_name, rule.action_params)
                action = shared.get(key)
                if action is None:
                    action = shared[key] = self._resolve_action(rule)
            else:
                action = self._resolve_action(rule)
            entry = TableEntry(match, action)
            key = _canonical_key(match)
            if key is None:
                raise TableError(f"table {name!r} needs hashable match values: {match}")
            if key in exact_index or key in indexed:
                raise TableError(f"duplicate entry in table {name!r}: {match}")
            indexed[key] = entry
            entries.append(entry)
        if not entries:
            return entries
        self._entries.extend(entries)
        exact_index.update(indexed)
        self.version += 1
        return entries

    def remove(self, match: Mapping[str, Any]) -> bool:
        """Remove the entry with the given match key; returns ``True`` if found."""
        target = dict(match)
        for i, entry in enumerate(self._entries):
            if entry.match == target:
                del self._entries[i]
                self.version += 1
                self._exact_index.pop(_canonical_key(target), None)
                return True
        return False

    def clear(self) -> None:
        """Remove every installed entry and the address plan."""
        self._entries.clear()
        self._exact_index.clear()
        self.address_plan = None
        self.version += 1

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[TableEntry, ...]:
        """Snapshot of the installed entries."""
        return tuple(self._entries)

    def lookup(self, key: Mapping[str, Any]) -> TableEntry | None:
        """Find the matching entry for a lookup key (no side effects).

        The key itself first; with an address plan, a miss then probes the
        aggregate entry the plan says covers the value.
        """
        canonical = _canonical_key(key)
        entry = None if canonical is None else self._exact_index.get(canonical)
        if entry is None and self.address_plan is not None:
            entry = self._aggregate_entry(key.get(self._single_field))
        return entry

    def _resolve_action(self, rule: FlowRule) -> Any:
        spec = self._actions.get(rule.action_name)
        if spec is None:
            raise TableError(
                f"table {self.name!r} has no action named {rule.action_name!r}"
            )
        if not isinstance(spec, type):
            if rule.action_params:
                raise TableError(
                    f"action {rule.action_name!r} is a shared instance and does not "
                    "accept per-rule parameters"
                )
            return spec
        return spec(**rule.params_dict())

    def _aggregate_entry(self, value: Any) -> TableEntry | None:
        """The entry the address plan says covers ``value``, if installed."""
        try:
            covering = self.address_plan.get(value)
        except TypeError:  # unhashable value: covered by nothing
            return None
        if covering is None:
            return None
        return self._exact_index.get(((self._single_field, covering),))
