import os
import sys
from pathlib import Path

from hypothesis import HealthCheck, Phase, settings

# the oracles module lives next to the tests, not inside the package
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI keeps every example count but skips shrinking: a broken property
# then fails in seconds instead of spending minutes minimizing its example
settings.register_profile(
    "ci",
    parent=settings.get_profile("default"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("ci" if os.environ.get("CI") else "default")
