"""Discrete-event simulation substrate (engine, events, requests, queues)."""

from .engine import Engine
from .request import MemoryRequest, Origin

__all__ = ["Engine", "MemoryRequest", "Origin"]
