"""Byte-identity guard for the synthetic workload generator.

Every profile's first 3000 generated instructions are hashed field by
field — every :class:`~repro.isa.instruction.DynamicInstruction` field,
registers as (class, index) — and compared with a SHA-256 recorded
before any generator optimisation.  A speed-up of the generator must
leave every stream unchanged; a digest change means the streams (and
with them every simulated statistic) changed.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import pytest

from repro.isa.instruction import DynamicInstruction, LogicalRegister
from repro.workloads.profiles import all_profiles
from repro.workloads.synthetic import SyntheticWorkload

STREAM_LENGTH = 3000

#: SHA-256 of each profile's stream, recorded with the pre-optimisation
#: generator.
EXPECTED_DIGESTS = {
    "applu": "dfcc684d8783053f540a4e73bedd71918b68b5975b770d1c74e2e144cf5c303b",
    "apsi": "b25ad1a698ca7ff2db6da8f6367d220fd89f9d1b8e7948e69b31a945b7ac13be",
    "compress": "9e4c84f13a8b9daeab7e0542b5f736be172b7a7def613319327d131ca2306881",
    "fpppp": "9a957bbb4215546ee89f3eff9f801741fd17b0df68c18430026ee58b96115ec7",
    "gcc": "8f877b2e1bac6e6bc4c20b70abb6b0268283c90a6871c3840126c34b175f7a73",
    "go": "405212e56fc83a6b62d98570b5d1f56b7b80ecbeb0a901ba4522a846ec66dcee",
    "hydro2d": "da616e0fce55183e2536d987d2916d95659f607d6078951b6ce33b96cd179318",
    "ijpeg": "7b79af36d671dc29c36aa852d2760ad97dac03adb177b2fc1d38316c028c3937",
    "li": "e22f8f3a1c15a4fd66756f0531b49ba4df559c8c5259cc59386d83759989f967",
    "m88ksim": "c7737eb208e30035e83a8c9c7181a6e5f9adb74837f97888aa226fcdb8bcf0b9",
    "mgrid": "3734f18cdc9214f0ac0c8743b48a9dcdcc2076e22df74979c49e068c1236611c",
    "perl": "8a5d922fde03517faff0f4487461d04afae83910ab42e43a307c1621f129ed1e",
    "su2cor": "fad2d5a706af3edf3a69256bb107afa43a02366667b3664a56d729fe50cd9590",
    "swim": "44b8e85fc2f28f21a7847827f08871e7b899cb31b2f918d496e95825dd9ddc06",
    "tomcatv": "4b5a08a182511dd73acbed0db0f8b793a7b872eca3a52ecc8a3009717caba3e6",
    "turb3d": "d9585d60a14df40d968999fb5332298f681e8703ee519ae7536a2b962a551c52",
    "vortex": "cde2600e7444d9d92639fca3a839f9521750c08915c096198c655b79aa2522cd",
    "wave5": "2714d8e7f17dad5e1fcf9d3aea102183e69491910a0f3e0ca91a00c44ece6c1a",
}

_FIELDS = tuple(field.name for field in dataclasses.fields(DynamicInstruction))


def _canonical(value) -> str:
    if isinstance(value, LogicalRegister):
        return f"{value.reg_class.value}{value.index}"
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, tuple):
        return "(" + ",".join(_canonical(item) for item in value) + ")"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{key!r}:{_canonical(item)}" for key, item in items) + "}"
    return repr(value)


def stream_digest(profile) -> str:
    digest = hashlib.sha256()
    for instruction in SyntheticWorkload(profile).instructions(STREAM_LENGTH):
        fields = (_canonical(getattr(instruction, field)) for field in _FIELDS)
        digest.update("|".join(fields).encode() + b"\n")
    return digest.hexdigest()


def test_every_profile_is_pinned():
    assert set(EXPECTED_DIGESTS) == set(all_profiles())


@pytest.mark.parametrize("name", sorted(all_profiles()))
def test_generated_stream_is_byte_identical(name):
    assert stream_digest(all_profiles()[name]) == EXPECTED_DIGESTS[name], (
        f"the generated {name!r} stream changed; generator optimisations "
        "must leave every stream byte-identical"
    )


if __name__ == "__main__":  # pragma: no cover - records the digests
    for profile_name, profile in sorted(all_profiles().items()):
        print(f'    "{profile_name}": "{stream_digest(profile)}",')
