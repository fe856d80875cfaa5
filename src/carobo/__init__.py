"""Two-agent robot control: a planner and an executor driving a simulated car.

A Host agent turns a natural language request into a global plan once; an App
agent then walks an observe/decide/act loop, issuing one car command per
round against either the in-process simulator or a message bridge.

Import each name from its module. The package re-exports nothing, so the robot
side (`carobo.sim`, `carobo.bridge`) loads none of the agent side.
"""
