"""Byte-identity guard for the synthetic workload generator.

Every profile's first 3000 generated instructions are hashed field by
field — the stream fields of
:class:`~repro.isa.instruction.DynamicInstruction` listed in
``STREAM_FIELDS``, registers as (class, index) — and compared with a
recorded SHA-256.  A speed-up of the generator must leave every stream
unchanged; a digest change means the streams (and with them every
simulated statistic) changed.

One more stream covers what no stock profile reaches: a gcc-derived mix
with 5% NOPs (instructions without register sources) generated with an
explicit seed, as the differential fuzzer generates.

Only a deliberate change of the generated streams re-records the table.
Print it with the generator under test on the path and paste it over
``EXPECTED_DIGESTS``::

    PYTHONPATH=src python tests/test_workload_stream_digest.py

Pointing ``PYTHONPATH`` at another checkout's ``src`` prints that
checkout's table, which is how a table is carried across a change of
the instruction record: hash the same explicit fields on both sides.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import pytest

from repro.isa.instruction import DynamicInstruction, LogicalRegister
from repro.isa.opcodes import OpClass
from repro.workloads.profiles import all_profiles, get_profile
from repro.workloads.synthetic import SyntheticWorkload

STREAM_LENGTH = 3000

#: The hashed fields, in order: every field of ``DynamicInstruction``.
STREAM_FIELDS = (
    "seq", "op_class", "dest", "sources", "latency", "pc", "is_branch",
    "branch_taken", "branch_target", "mem_address", "mnemonic",
)

#: Name and seed of the stream that covers the zero-source (NOP) path.
NOP_CASE = "gcc-nop5"
NOP_SEED = 7

#: SHA-256 of each stream, printed by the generator as it was before it
#: became one loop (and before ``DynamicInstruction`` lost its unused
#: ``annotations`` field).
EXPECTED_DIGESTS = {
    "applu": "4bd1400e92763a063f9e399467f0a4ce1792705d2a4811393f82d9195133bd3f",
    "apsi": "010326e81d3c4ac55bc2b3ddd5e56b1474794019c10da38ed847aff3ce1fc158",
    "compress": "56466e22019835caa9aa16acf63bca9703d9f13f29096963ae694d405be99183",
    "fpppp": "8c9c91e77ab338bb61708f5b070bd78a139a2b9441b42e9252697f894f7ab7c5",
    "gcc": "3f5aa2f6b791cc81c7eb3cb9ea5f5954bd3bfa008b1d9b099e7e8828f8374288",
    "gcc-nop5": "ffb5e54596e5b727ce55a7ea9bcb6b412b9a568e38841a52a70902ed66ebf9d4",
    "go": "32e9bc178c804da8a5a978af2fb934cbf8b03e388bebd441cef1b66eeee34dc4",
    "hydro2d": "da289a2830defee466a84777335adaaeb8f7d97eab81d160b94cfc52470de730",
    "ijpeg": "112d1ea606af73813ab98eada576b20eb8e7613ddc4af9b7cb19574cf009b7ab",
    "li": "6b485e28fd522749fa186e6cbe25026e019ebb45a26a31306d35dfb22a59ac5f",
    "m88ksim": "53a0bbe6e59bb2ea7d568a5b0cf91d70ef28168e5cec5529c7deb6e9d02d1b67",
    "mgrid": "e9b2ac77a017d3244efe46ea17ff5dfd11ba81c9f39d8bef6ee43c609a04df8e",
    "perl": "5f8dec42ff9c5cbd8bf116d6e2a3d873fd48a7d90fbae44c89663337c82a20bc",
    "su2cor": "ab3b52420e876fb3b34fb9ead92c4912027bb6beeaf0ce11426d923afd75b3e5",
    "swim": "925ee64755469de3c707c2ed4c358ed1b731f90d1506466beae7ce0197e3cdca",
    "tomcatv": "20a55d9cd726015d457d82cf76481622e044b567dba6008834ba5e1ec755eba1",
    "turb3d": "058c53716611ba99af7476f9d3cbc2ff3f77b2ef1a2463d90f3ff3e785ed42e2",
    "vortex": "153f014e6918b57bec28b760c84903241551ddf71f6b3fb4d7dff581c0b1fdef",
    "wave5": "3c1d9a4d565aef6fbb8f421cbed05ea9a0f42a84ca34fadd6bbd9075731f55c2",
}


def _nop_profile():
    """gcc with every class scaled to 95% and 5% NOPs added."""
    gcc = get_profile("gcc")
    mix = {op_class: share * 0.95 for op_class, share in gcc.instruction_mix.items()}
    mix[OpClass.NOP] = mix.get(OpClass.NOP, 0.0) + 0.05
    return dataclasses.replace(gcc, name=NOP_CASE, instruction_mix=mix)


def _streams() -> dict:
    """Every pinned stream: name -> (profile, seed)."""
    streams = {name: (profile, None) for name, profile in all_profiles().items()}
    streams[NOP_CASE] = (_nop_profile(), NOP_SEED)
    return streams


def _canonical(value) -> str:
    if isinstance(value, LogicalRegister):
        return f"{value.reg_class.value}{value.index}"
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, tuple):
        return "(" + ",".join(_canonical(item) for item in value) + ")"
    return repr(value)


def stream_digest(profile, seed=None) -> str:
    digest = hashlib.sha256()
    for instruction in SyntheticWorkload(profile, seed=seed).instructions(STREAM_LENGTH):
        fields = (_canonical(getattr(instruction, field)) for field in STREAM_FIELDS)
        digest.update("|".join(fields).encode() + b"\n")
    return digest.hexdigest()


def test_hashed_fields_are_every_instruction_field():
    assert STREAM_FIELDS == tuple(
        field.name for field in dataclasses.fields(DynamicInstruction)
    )


def test_every_profile_is_pinned():
    assert set(EXPECTED_DIGESTS) == set(_streams())


def test_nop_case_generates_nops_without_sources():
    profile, seed = _streams()[NOP_CASE]
    nops = [
        instruction
        for instruction in SyntheticWorkload(profile, seed=seed).instructions(STREAM_LENGTH)
        if instruction.op_class is OpClass.NOP
    ]
    assert nops
    assert all(nop.sources == () and nop.dest is None for nop in nops)


@pytest.mark.parametrize("name", sorted(_streams()))
def test_generated_stream_is_byte_identical(name):
    profile, seed = _streams()[name]
    assert stream_digest(profile, seed) == EXPECTED_DIGESTS[name], (
        f"the generated {name!r} stream changed; generator optimisations "
        "must leave every stream byte-identical"
    )


if __name__ == "__main__":  # pragma: no cover - records the digests
    for stream_name, (stream_profile, stream_seed) in sorted(_streams().items()):
        print(f'    "{stream_name}": "{stream_digest(stream_profile, stream_seed)}",')
