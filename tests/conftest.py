import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

GOLDEN_DIR = Path(__file__).parent / "golden"

_TIMESTAMP_RE = re.compile(r'"timestamp": "[^"]*"')


def mask_timestamp(text: str) -> str:
    return _TIMESTAMP_RE.sub('"timestamp": "MASKED"', text)


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def invoke():
    """Run the CLI in-process; returns (exit_code, stdout_text)."""
    import qdeform.cli as cli

    def _invoke(argv):
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = cli.main(list(argv))
        except SystemExit as exc:  # usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        return code, buf.getvalue()

    return _invoke
