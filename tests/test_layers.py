"""The robot side of the package loads none of the agent side."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_robot_side_imports_no_agent_or_http_module():
    probe = ("import sys, carobo.sim, carobo.bridge; "
             "print(' '.join(m for m in ('requests', 'carobo.llm', 'carobo.app', 'carobo.bench') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout.split() == []
