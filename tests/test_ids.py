"""Tests for ``repro.ids``, the one source of simulation ids."""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.core.sensing import SensingQuery
from repro.geometry import Vec2
from repro.ids import next_id, reset_global_ids
from repro.mobility import SensorKind
from repro.security import KeyPair, RealIdentity, TokenService, TrustedAuthority
from repro.security.access import (
    AbeAuthority,
    AbePolicy,
    AnonymousAccessIssuer,
    DataPolicyPackage,
    Policy,
)
from repro.trust import EventKind, EventReport

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


class TestNextId:
    def test_each_kind_counts_from_one(self):
        assert [next_id("alpha"), next_id("alpha"), next_id("beta")] == [1, 2, 1]

    def test_rewind_covers_every_kind(self):
        next_id("alpha")
        next_id("beta")
        reset_global_ids()
        assert (next_id("alpha"), next_id("beta")) == (1, 1)


# -- classes that draw ids without a world ----------------------------------


def _pseudonyms():
    authority = TrustedAuthority()
    authority.register_vehicle(RealIdentity("vin-1"))
    pool = authority.issue_pseudonyms("vin-1", 2)
    return [(p.pseudonym_id, p.keypair.private_token) for p in pool.pseudonyms]


def _token():
    authority = TrustedAuthority()
    authority.register_vehicle(RealIdentity("vin-1"))
    (pseudonym,) = authority.issue_pseudonyms("vin-1", 1).pseudonyms
    return TokenService(authority).issue(pseudonym.pseudonym_id, "parking", now=0.0).token_id


def _keypair():
    return KeyPair.generate("obu")


def _abe():
    authority = AbeAuthority()
    key = authority.keygen({"role": "head"}).value
    ciphertext = authority.encrypt(b"map", AbePolicy.of(role="head")).value
    # The binding and the seal derive from the authority's master secret.
    return key.key_id, key.binding, ciphertext.ciphertext_id, ciphertext.sealed


def _capability():
    capability = AnonymousAccessIssuer(b"owner").grant("lender", "feed", ("read",), 2)
    return capability.capability_id, [t.ticket_id for t in capability.tickets]


def _package():
    return DataPolicyPackage(b"payload", Policy("p"), owner="pn-owner").package_id


def _report():
    return EventReport("pn-1", EventKind.ICY_ROAD, Vec2(0.0, 0.0), 0.0, True).report_id


def _query():
    return SensingQuery(SensorKind.CAMERA, Vec2(0.0, 0.0), 50.0).query_id


@pytest.mark.parametrize(
    "build",
    [_pseudonyms, _token, _keypair, _abe, _capability, _package, _report, _query],
    ids=lambda build: build.__name__.strip("_"),
)
def test_rewind_repeats_the_ids_of_worldless_classes(build):
    reset_global_ids()
    first = build()
    assert build() != first, "each build draws fresh ids"
    reset_global_ids()
    assert build() == first


# -- no id counter outside repro.ids -----------------------------------------


def _is_count(func: ast.expr) -> bool:
    """``itertools.count`` or a bare ``count`` imported from itertools."""
    if isinstance(func, ast.Attribute):
        return func.attr == "count" and isinstance(func.value, ast.Name) and (
            func.value.id == "itertools"
        )
    return isinstance(func, ast.Name) and func.id == "count"


def _import_time_counts(source: str):
    """Line numbers of ``itertools.count(...)`` calls run at import time.

    That is everywhere but inside function and lambda bodies: module
    and class bodies run once per process, so a counter made there is
    process-global.
    """
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call) and _is_count(node.func):
            found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_scanner_finds_import_time_counters_only():
    source = (
        "import itertools\n"
        "from itertools import count\n"
        "_a = itertools.count(1)\n"
        "class C:\n"
        "    _b = count()\n"
        "    def method(self):\n"
        "        self._c = itertools.count()\n"
        "_d = lambda: itertools.count(1)\n"
    )
    assert _import_time_counts(source) == [3, 5]


def test_only_repro_ids_holds_id_counters():
    offenders = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path == PACKAGE_DIR / "ids.py":
            continue
        lines = _import_time_counts(path.read_text(encoding="utf-8"))
        if lines:
            offenders[str(path.relative_to(PACKAGE_DIR))] = lines
    assert offenders == {}
