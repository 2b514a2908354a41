"""Guards on the configuration surface of the package.

Every environment switch multiplies the configurations the suite has to
cover, and a deprecation shim is a second code path with an expiry
date.  New ones must be added here deliberately, not slip in.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: The only ``REPRO_*`` environment variables the package reads.
ENVIRONMENT = {
    "REPRO_CACHE_DIR",
    "REPRO_FLIGHT_EVENTS",
    "REPRO_PAIR_INDEX",
    "REPRO_STORE_CACHE",
    "REPRO_TELEMETRY",
    "REPRO_WORKER_FAIL_KEYS",
}


def _sources() -> dict[Path, str]:
    return {p: p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}


def test_environment_variables_are_the_known_set():
    found = {
        name
        for text in _sources().values()
        for name in re.findall(r"\bREPRO_[A-Z0-9_]+", text)
    }
    assert found == ENVIRONMENT


def test_no_module_emits_deprecation_warnings():
    offenders = [
        str(path.relative_to(SRC))
        for path, text in _sources().items()
        if "DeprecationWarning" in text
    ]
    assert offenders == []
