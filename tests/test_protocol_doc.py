"""Doc-sync test: docs/PROTOCOL.md must match wire.py, byte for byte.

The protocol spec is normative and test-enforced: every table marked
with a ``<!-- table:NAME -->`` comment is parsed here and checked
against the implementation's actual magic numbers, header layouts,
kind codes, blueprint fields and reason codes.  Change either side
without the other and this test fails — the documentation cannot
silently rot (ISSUE 5).
"""

import pathlib
import re
import struct

import numpy as np

from repro.transport import wire

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "PROTOCOL.md"


def _tables():
    """Parse every marked markdown table into {name: [row cells...]}."""
    text = DOC.read_text()
    tables = {}
    for match in re.finditer(r"<!-- table:([a-z0-9-]+) -->", text):
        rest = text[match.end():]
        rows = []
        started = False
        for line in rest.splitlines():
            line = line.strip()
            if not line:
                if started:
                    break
                continue
            if not line.startswith("|"):
                if started:
                    break
                continue
            started = True
            cells = [c.strip() for c in line.strip("|").split("|")]
            if all(set(c) <= {"-", ":", " "} for c in cells):
                continue  # the header separator row
            rows.append(cells)
        tables[match.group(1)] = rows[1:]  # drop the header row
    return tables


TABLES = _tables()


def _code(cell: str) -> str:
    """Strip markdown backticks from a table cell."""
    return cell.strip("`")


def _live(rows):
    """Rows of a code table minus the *retired, reserved* ones."""
    return [r for r in rows if "retired" not in r[-1]]


def _header_offsets(fmt: str):
    """(offset, size) per field of a struct format, in order."""
    fields = re.findall(r"\d*[a-zA-Z]", fmt.lstrip("<"))
    offsets, offset = [], 0
    for field in fields:
        size = struct.calcsize("<" + field)
        offsets.append((offset, size))
        offset += size
    return offsets


class TestCoreConstants:
    def rows(self):
        return {_code(r[0]): _code(r[1]) for r in TABLES["constants"]}

    def test_doc_has_all_marked_tables(self):
        assert set(TABLES) == {
            "constants", "header", "kinds", "admit-fields", "reject-codes",
        }

    def test_magic(self):
        assert self.rows()["MAGIC"] == f'"{wire.MAGIC.decode()}"'

    def test_version(self):
        assert int(self.rows()["VERSION"]) == wire.VERSION

    def test_header_nbytes(self):
        assert int(self.rows()["HEADER_NBYTES"]) == wire.HEADER_NBYTES

    def test_max_session(self):
        assert int(self.rows()["MAX_SESSION"]) == wire.MAX_SESSION

    def test_header_struct_format(self):
        assert self.rows()["header struct"] == wire._HEADER.format


class TestHeaderLayout:
    def test_layout_matches_implementation(self):
        rows = TABLES["header"]
        assert [_code(r[2]) for r in rows] == [
            "magic", "version", "kind", "session", "total_len",
        ]
        expected = _header_offsets(wire._HEADER.format)
        for row, (offset, size) in zip(rows, expected):
            assert int(row[0]) == offset, f"{row[2]} offset"
            assert int(row[1]) == size, f"{row[2]} size"
        assert sum(s for _, s in expected) == wire.HEADER_NBYTES


class TestKindCodes:
    def rows(self):
        return {_code(r[1]): int(r[0]) for r in _live(TABLES["kinds"])}

    def test_every_documented_kind_matches_the_code(self):
        for name, code in self.rows().items():
            assert getattr(wire, f"KIND_{name}") == code, name

    def test_kind_space_is_exactly_the_documented_one(self):
        assert set(self.rows().values()) == set(wire._KINDS)
        impl_kinds = {
            n for n in dir(wire) if n.startswith("KIND_")
        }
        assert impl_kinds == {f"KIND_{name}" for name in self.rows()}

    def test_retired_codes_stay_reserved(self):
        """§7: a retired code is neither live nor reassigned."""
        codes = [int(r[0]) for r in TABLES["kinds"]]
        assert codes == list(range(len(codes)))  # no gap, no duplicate
        retired = set(codes) - set(self.rows().values())
        assert retired == {5} and not retired & wire._KINDS


class TestAdmitBlueprintFields:
    def rows(self):
        return {_code(r[0]): _code(r[1]) for r in TABLES["admit-fields"]}

    def test_field_set_and_dtypes_match_the_wire_encoding(self):
        documented = self.rows()
        admit = wire.Admit(
            student_width=0.5, student_seed=0, pretrain_steps=1,
            frame_h=2, frame_w=3, mode="partial", threshold=0.5,
            max_updates=1, min_stride=1, max_stride=2, lr=0.1,
            reset_optimizer_state=True,
        )
        state = admit.to_state()
        assert set(documented) == set(state)
        for name, value in state.items():
            assert np.asarray(value).dtype.name == documented[name], name

    def test_mode_codes_match(self):
        assert wire.Admit._MODES == ("partial", "full")


class TestRejectCodes:
    def test_reason_table_matches_implementation_exactly(self):
        documented = {
            int(r[0]): _code(r[1]) for r in _live(TABLES["reject-codes"])
        }
        assert documented == wire.REJECT_REASONS
        codes = [int(r[0]) for r in TABLES["reject-codes"]]
        assert codes == list(range(1, len(codes) + 1))
        assert set(codes) - set(documented) == {1, 2, 5}  # retired, reserved


class TestDocExamplesAreHonest:
    """The spec's claims that are cheap to execute, executed."""

    def test_empty_body_kinds_are_exactly_header_nbytes(self):
        for msg in (None, wire.Accept(1), wire.Bye(1)):
            assert wire.encoded_nbytes(msg) == wire.HEADER_NBYTES

    def test_admit_body_is_a_state_body(self):
        admit = wire.Admit(
            student_width=0.5, student_seed=0, pretrain_steps=1,
            frame_h=2, frame_w=3, mode="full", threshold=0.5,
            max_updates=1, min_stride=1, max_stride=2, lr=0.1,
            reset_optimizer_state=False,
        )
        as_admit = wire.encode(admit)
        as_state = wire.encode(dict(admit.to_state()))
        # Identical bytes past the kind byte: same body framing.
        assert as_admit[wire.HEADER_NBYTES:] == as_state[wire.HEADER_NBYTES:]

    def test_reject_body_layout(self):
        # body head: u16 code | u16 detail_len | u8 flag | u64 hint
        #             | u8 shard flag | u16 shard.
        head = struct.Struct("<HHBQBH")
        reject = wire.Reject(5, wire.REJECT_OVERLOADED, "dry", retry_after=17)
        body = wire.encode(reject)[wire.HEADER_NBYTES:]
        (code, detail_len, has_retry, retry_after,
         has_shard, shard) = head.unpack_from(body, 0)
        assert code == wire.REJECT_OVERLOADED
        assert (has_retry, retry_after) == (1, 17)
        assert (has_shard, shard) == (0, 0)
        assert body[head.size : head.size + detail_len].decode() == "dry"
        # Without a hint the flag and field MUST both encode as zero.
        bare = wire.encode(wire.Reject(5, wire.REJECT_CAPACITY, "full"))
        body = bare[wire.HEADER_NBYTES:]
        (code, detail_len, has_retry, retry_after,
         has_shard, shard) = head.unpack_from(body, 0)
        assert code == wire.REJECT_CAPACITY
        assert (has_retry, retry_after) == (0, 0)
        assert (has_shard, shard) == (0, 0)
        assert body[head.size : head.size + detail_len].decode() == "full"
        # §4.6/§5.1: a redirect MUST carry has_shard = 1 + the target.
        routed = wire.encode(wire.Reject(0, wire.REJECT_REDIRECT,
                                         "belongs on shard 3", shard=3))
        body = routed[wire.HEADER_NBYTES:]
        (code, detail_len, has_retry, retry_after,
         has_shard, shard) = head.unpack_from(body, 0)
        assert code == wire.REJECT_REDIRECT
        assert (has_shard, shard) == (1, 3)

    def test_retryable_codes_are_exactly_3_and_6(self):
        """§4.6: capacity and overloaded are the retryable refusals."""
        from repro.serving.runtime import AdmissionError

        for code, name in wire.REJECT_REASONS.items():
            exc = AdmissionError(wire.Reject(0, code, ""))
            assert exc.retryable == (name in ("capacity", "overloaded")), name
