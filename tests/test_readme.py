"""The README's contracts against the code they describe."""

import dataclasses
import re
from pathlib import Path

from pcdyn import InconclusiveError
from pcdyn import config
from pcdyn.config import RunConfig, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _config_block() -> str:
    section = README[README.index("### Config documents"):]
    return section.split("```\n", 2)[1]


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
