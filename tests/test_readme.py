"""The README's contracts against the code they describe."""

import dataclasses
import importlib
import re
from pathlib import Path

import pcdyn
from pcdyn import InconclusiveError
from pcdyn import config
from pcdyn.config import RunConfig, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _config_block() -> str:
    section = README[README.index("### Config documents"):]
    return section.split("```\n", 2)[1]


# the modules whose names a README paragraph may spell as module.name
_MODULES = {
    "pcmap", "numerics", "quasipartition", "ifs", "maps", "config",
    "survey", "sampling", "cli",
}


def _parser_keys() -> set[str]:
    """Every key parse_config accepts: its key table."""
    return set(config._KEYS)


class TestReadme:
    def test_survey_reasons_are_the_inconclusive_errors(self):
        listed = re.search(r"Reasons are\s(.*?)\.\n", README, re.S).group(1)
        reasons = re.findall(r"`([a-z-]+)`", listed)
        assert len(reasons) == len(set(reasons))
        assert set(reasons) == {
            cls.reason for cls in InconclusiveError.__subclasses__()
        }

    def test_config_block_parses_with_every_key(self):
        block = _config_block()
        parse_config(block)
        keys = {
            line.split("#", 1)[0].split()[0]
            for line in block.splitlines()
            if line.split("#", 1)[0].strip()
        }
        assert keys == _parser_keys()

    def test_keys_and_run_config_fields_in_step(self):
        # a field added without a key, or a key without a field, fails here;
        # map lines fill maps, and backend and eps_cmp build the backend
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert _parser_keys() - {"map", "backend", "eps_cmp"} == (
            fields - {"backend", "maps"}
        )

    def test_dotted_names_resolve(self):
        # every backticked module.name or Class.name names something that
        # exists, so a paragraph cannot outlive a deleted name; other heads
        # (q.entries, math.gcd, rng.random) are not pcdyn's and are skipped
        checked = set()
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\(\))?`", README):
            parts = name.split(".")
            if parts[0] == "pcdyn" and parts[1] in _MODULES:
                parts = parts[1:]
            if parts[0] in _MODULES:
                obj = importlib.import_module(f"pcdyn.{parts[0]}")
            elif parts[0] in pcdyn.__all__ and isinstance(
                getattr(pcdyn, parts[0]), type
            ):
                obj = getattr(pcdyn, parts[0])
            else:
                continue
            for attr in parts[1:]:
                assert hasattr(obj, attr), f"README names {name}: no {attr}"
                obj = getattr(obj, attr)
            checked.add(name)
        assert {"pcmap._step", "PiecewiseContraction._domains"} <= checked
