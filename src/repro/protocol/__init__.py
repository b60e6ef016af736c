"""The cluster reformulation protocol: requests, locks, the gather phase, rounds and the run loop."""

from repro.protocol.locks import LockTable
from repro.protocol.reformulation import ProtocolResult, ReformulationProtocol
from repro.protocol.representative import gather_requests
from repro.protocol.requests import RelocationRequest
from repro.protocol.rounds import GrantedMove, RoundResult, execute_round

__all__ = [
    "RelocationRequest",
    "LockTable",
    "gather_requests",
    "GrantedMove",
    "RoundResult",
    "execute_round",
    "ProtocolResult",
    "ReformulationProtocol",
]
