"""The bundled benchmark's domains, in the order its reports list them.

The suite itself (scenarios, worlds, goals, oracle scripts and recorded model
traces) lives only under the package's data directory; scripts/build_data.py
holds its definition and regenerates those files.
"""

DOMAINS = (
    "object_detection",
    "command_execution",
    "obstacle_navigation",
    "situation_awareness",
)
