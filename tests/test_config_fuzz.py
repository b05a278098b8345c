"""Mutated configs end as a ``ConfigError`` at parse or as a run that reports.

Each example takes a config that parses (a spec-table example in its host,
from ``test_config_specs``) or one that breaks a value rule (from
``test_config_rejections``), and mutates it a few times: a key is dropped,
copied onto a sibling or retyped, a number becomes ±1e308, 1e200 or
5e-324, two numbers of the config become two such values together, a list
is shortened or has an entry duplicated, a kind tag is swapped for another
kind.  Parsing the result must either raise a
``ConfigError`` or give a config whose run, capped at a few iterations,
writes ``report.json`` with no seed ``error``.  No other exception and no
warning may escape (the suite turns ``RuntimeWarning`` into an error).
"""

import copy
import json
import os
import tempfile

import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import blocksweep.cli as cli
from blocksweep.cli import execute_run, parse_config
from blocksweep.errors import ConfigError

import test_config_rejections as rejections
import test_config_specs as specs

HOSTS = (
    [host(examples[kind]) for examples, host in specs.CASES.values()
     for kind in examples]
    + [rejections._km(rejections.IDENTITY), rejections._pd_dr(),
       rejections._dr(), rejections._fb_min(), rejections._fb(0.5)]
    + list(rejections.REJECTED.values())
)
NUMBERS = (1.0e308, -1.0e308, 1.0e200, 5e-324)
RETYPES = ("text", True, None, [], {}, [[1.0]], 0, -1)
# every kind of each tag, from the spec tables
KINDS: dict = {}
for _table in vars(cli).values():
    if isinstance(_table, cli._Table):
        KINDS.setdefault(_table.tag, set()).update(_table.kinds)
KINDS = {tag: sorted(kinds) for tag, kinds in KINDS.items()}


def _places(node, path=()):
    """Every container in ``node`` with its path, the root first."""
    if isinstance(node, (dict, list)):
        yield path, node
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _places(value, path + (key,))


def _mutate(doc, draw):
    places = list(_places(doc))
    _, node = draw(st.sampled_from(places))
    if not node:
        return
    if isinstance(node, list):
        i = draw(st.integers(0, len(node) - 1))
        op = draw(st.sampled_from(("shrink", "duplicate", "number",
                                   "retype")))
        if op == "shrink":
            del node[draw(st.integers(0, len(node) - 1)):]
        elif op == "duplicate":
            node.insert(i, copy.deepcopy(node[i]))
        elif op == "number":
            node[i] = draw(st.sampled_from(NUMBERS))
        else:
            node[i] = copy.deepcopy(draw(st.sampled_from(RETYPES)))
        return
    key = draw(st.sampled_from(sorted(node)))
    ops = ["drop", "copy", "number", "retype"]
    if key in KINDS and isinstance(node[key], str):
        ops.append("swap")
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del node[key]
    elif op == "copy":
        node[draw(st.sampled_from(sorted(node)))] = copy.deepcopy(node[key])
    elif op == "number":
        node[key] = draw(st.sampled_from(NUMBERS))
    elif op == "retype":
        node[key] = copy.deepcopy(draw(st.sampled_from(RETYPES)))
    else:
        node[key] = draw(st.sampled_from(KINDS[key]))


def _numbers(node):
    """``(container, key)`` of every number in ``node``."""
    for _, container in _places(node):
        items = (container.items() if isinstance(container, dict)
                 else enumerate(container))
        for key, value in items:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield container, key


def _mutate_two_numbers(doc, draw):
    places = list(_numbers(doc))
    if len(places) < 2:
        return
    for k in draw(st.lists(st.integers(0, len(places) - 1), min_size=2,
                           max_size=2, unique=True)):
        container, key = places[k]
        container[key] = draw(st.sampled_from(NUMBERS))


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(HOSTS)))
    for _ in range(draw(st.integers(1, 3))):
        draw(st.sampled_from((_mutate, _mutate_two_numbers)))(doc, draw)
    return doc


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(doc=mutated_configs())
# the coupling's tau * ||L L'|| underflows to 0: a weight and a grid entry
# that are tiny together
@example(doc=rejections.REJECTED["fb_min_cocoercivity_sum_underflow"])
def test_a_mutated_config_is_rejected_at_parse_or_runs_and_reports(doc):
    text = yaml.safe_dump(doc)
    try:
        rc = parse_config(text)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        status = execute_run(rc, out_dir=out, max_iter=10)
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
    errors = {seed: entry["error"] for seed, entry in report["per_seed"].items()
              if "error" in entry}
    assert not errors, (text, errors)
    assert status in (0, 2)
