"""Frozen digests: config_hash names and trace bytes must not drift.

The digests were recorded before config coercion, resolution and the trace
header moved into one place in ``simnet``; a refactor of that path has to
reproduce them exactly. ``config_hash`` names every stored trace file and
the trace bytes are the identity of a run, so a changed digest here is a
changed run, not a cosmetic difference.

The trace digests were first recorded in trace version 1, which wrote times
as rational strings in real units, and then in version 2, which wrote ticks
on the header's grid but still one ``send`` record per recipient and the
send's sender, payload and time in every ``deliver``. Version 3 wrote one
``send`` record per ``send()`` call with its word count, and a drifted
clock's times as ``"p/q"`` ticks on a coarser grid than version 4's. Version
4 wrote every record's seq and every deliver's time, which version 5 leaves
for the reader to derive. Version 5 wrote every record as an object with
sorted keys, where version 6 wrote every record but the header as an array
in its ``RECORD_FIELDS`` row's order. Version 6 wrote each array's kind and
payload type by their full names, where version 7 writes their one-letter
codes. Version 7 named a deliver's send by its absolute seq and listed a
send's absolute due times, where version 8 writes the deliver's distance
back to its send and the send's delays. ``as_v7`` rewrites a version 8
trace's records as version 7's, which ``v7_text`` writes, ``as_v6`` writes
a version 7 trace in version 6's form, ``as_v5`` writes a version 7 trace's
records in version 5's, ``as_v4`` writes them in version 4's, ``as_v3``
writes a version 4 trace in version 3's, ``as_v2`` expands a version 3
trace into version 2's shape and ``as_v1`` spells a version 2 trace in real
units again, so the same runs still match the digests of all seven; each
cell also pins its version 8 digest. The records of versions 1 to 4 carry a
``seq``, which no row has, so the writer writes them as objects, as it
always did.
"""

import copy
import hashlib
import json
from fractions import Fraction

import pytest
import yaml

from viewsync.cli import load_spec, main
from viewsync.harness import build_config, config_hash
from viewsync.simnet import Corruption, Resolved, Simulation
from viewsync.timeutil import from_ticks, load_ticks
from viewsync.trace import (
    PAYLOAD_CODES,
    PAYLOAD_FIELDS,
    RECORD_CODES,
    RECORD_FIELDS,
    TraceParseError,
    parse_jsonl,
    to_jsonl,
)

RECORD_TIMES = ("time", "send_time", "deliver_time", "proc_clock", "boundary_clock")
HEADER_TIMES = ("gamma", "delta_cap", "delta_actual", "gst", "horizon")


# each RECORD_FIELDS row as version 7 named its fields: a deliver named its
# send by its absolute seq, and a send listed its recipients' due times
V7_NAMES = {"back": "send", "delays": "deliver_times"}
V7_FIELDS = {kind: [V7_NAMES.get(n, n) for n in row] for kind, row in RECORD_FIELDS.items()}


def as_v7(records):
    """A version 8 trace's records as version 7 wrote them: each deliver's
    ``back`` as ``send``, the absolute seq of its send, and each send's
    ``delays`` as ``deliver_times``, its time plus each delay, each field in
    its place and the header's version 7."""
    out = []
    for seq, rec in enumerate(records):
        if rec["kind"] == "deliver":
            rec = {k: seq - v if k == "back" else v for k, v in rec.items()}
        elif rec["kind"] == "send":
            rec = {k: [rec["time"] + d for d in v] if k == "delays" else v for k, v in rec.items()}
        out.append({V7_NAMES.get(k, k): v for k, v in rec.items()})
    out[0] = {**out[0], "version": 7}
    return copy.deepcopy(out)


def v6_array(record) -> list:
    """A version 7 record's array as version 6 wrote it: its kind, its
    fields in row order, and its payload as ``[type, view, value]``, each
    by its name."""
    array = [record["kind"]]
    for name in V7_FIELDS[record["kind"]]:
        value = record[name]
        if name == "payload":
            fields = PAYLOAD_FIELDS[value["type"]]
            value = [value["type"], value["view"], *(value[f] for f in fields)]
        array.append(value)
    return array


def v7_text(records) -> str:
    """A version 7 trace's text: the header as an object, and every other
    record as its version 6 array with its kind and payload type by their
    codes."""
    head, *rest = records
    lines = [head]
    for array in map(v6_array, rest):
        if array[0] == "send":
            payload = array[1 + V7_FIELDS["send"].index("payload")]
            payload[0] = PAYLOAD_CODES[payload[0]]
        array[0] = RECORD_CODES[array[0]]
        lines.append(array)
    return "".join(
        json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        for value in lines
    )


def as_v6(records) -> str:
    """A version 7 trace's text as version 6 wrote it: the header's version
    6, and every other record, each of which fits its row, as its array by
    name."""
    head, *rest = records
    return "".join(
        json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        for value in [{**head, "version": 6}, *map(v6_array, rest)]
    )


def as_v5(records) -> str:
    """A version 7 trace's text as version 5 wrote it: every record through
    the sorted-key encoder, as an object, and the header's version 5."""
    head, *rest = records
    return "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        for r in [{**head, "version": 5}, *rest]
    )


def as_v4(records):
    """A version 5 trace written as version 4: every record with its seq, its
    index in the trace, and each ``deliver`` with its time, its send's
    ``deliver_times`` entry for its recipient."""
    out = copy.deepcopy(list(records))
    for seq, rec in enumerate(out):
        rec["seq"] = seq
        if rec["kind"] == "deliver":
            src = out[rec["send"]]
            rec["time"] = src["deliver_times"][src["recipients"].index(rec["recipient"])]
    out[0]["version"] = 4
    return out


def as_v3(records):
    """A version 4 trace written as version 3: every time divided by the
    header's ``unit``, the sub-ticks per tick that drifting clocks add to the
    grid, as an int when whole and a ``"p/q"`` string otherwise, and each
    ``send`` with its ``words`` back (one per recipient but the sender)."""
    unit = Resolved.from_header(records[0]).unit

    def tick(value):
        q = Fraction(value, unit)
        return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    out = copy.deepcopy(list(records))
    for rec in out[1:]:
        for name in RECORD_TIMES:
            if name in rec:
                rec[name] = tick(rec[name])
        if rec["kind"] == "send":
            rec["deliver_times"] = [tick(t) for t in rec["deliver_times"]]
            rec["words"] = sum(q != rec["sender"] for q in rec["recipients"])
    head = out[0]
    head["version"] = 3
    head["grid"] //= unit
    cfg = head["config"]
    for name in HEADER_TIMES:
        cfg[name] = tick(cfg[name])
    cfg["offsets"] = [tick(o) for o in cfg["offsets"]]
    for c in cfg["corruptions"]:
        c["time"] = tick(c["time"])
    if cfg["sync_windows"] is not None:
        cfg["sync_windows"] = [
            [tick(start), None if end is None else tick(end)] for start, end in cfg["sync_windows"]
        ]
    return out


def as_v2(records):
    """A version 3 trace expanded into version 2: one ``send`` record per
    recipient (``words`` 0 to the sender itself, 1 to anyone else), every
    ``deliver`` with its send's ``sender``, ``payload`` and ``send_time``
    back, and the records renumbered."""
    out = []
    sends = {}
    for rec in records:
        if rec["kind"] == "send":
            sends[rec["seq"]] = rec
            for q, when in zip(rec["recipients"], rec["deliver_times"]):
                out.append(
                    {
                        "kind": "send",
                        "time": rec["time"],
                        "sender": rec["sender"],
                        "recipient": q,
                        "payload": copy.deepcopy(rec["payload"]),
                        "deliver_time": when,
                        "words": int(q != rec["sender"]),
                    }
                )
        elif rec["kind"] == "deliver":
            src = sends[rec["send"]]
            out.append(
                {
                    "kind": "deliver",
                    "time": rec["time"],
                    "send_time": src["time"],
                    "sender": src["sender"],
                    "recipient": rec["recipient"],
                    "payload": copy.deepcopy(src["payload"]),
                    "proc_view": rec["proc_view"],
                    "proc_clock": rec["proc_clock"],
                }
            )
        else:
            out.append(copy.deepcopy(rec))
    for seq, rec in enumerate(out):
        rec["seq"] = seq
    out[0]["version"] = 2
    return out


def as_v1(records):
    """A version 2 trace rewritten in version 1 spelling: every time as the
    rational string of its real value, rates as rational strings."""
    grid = records[0]["grid"]

    def real(value):
        return str(from_ticks(load_ticks(value), grid))

    out = copy.deepcopy(list(records))
    for rec in out:
        for name in RECORD_TIMES:
            if name in rec:
                rec[name] = real(rec[name])
    head = out[0]
    head["version"] = 1
    cfg = head["config"]
    for name in HEADER_TIMES:
        cfg[name] = real(cfg[name])
    cfg["offsets"] = [real(o) for o in cfg["offsets"]]
    cfg["rates"] = [str(load_ticks(r)) for r in cfg["rates"]]
    for c in cfg["corruptions"]:
        c["time"] = real(c["time"])
    if cfg["sync_windows"] is not None:
        cfg["sync_windows"] = [
            [real(start), None if end is None else real(end)] for start, end in cfg["sync_windows"]
        ]
    return out


def sha256(records) -> str:
    """The SHA-256 of a trace's text, or of its records written as text."""
    text = records if isinstance(records, str) else to_jsonl(records)
    return hashlib.sha256(text.encode()).hexdigest()


# cell -> config_hash, one cell per input form a spec or a caller may use
HASHED_CELLS = [
    ({"n": 4, "delta_cap": 2, "f": 1, "seed": 0}, "afdbc262adb7caf1"),
    ({"n": 4, "corruptions": [], "seed": 0}, "8db2761b150b3ac7"),
    (
        {
            "n": 7,
            "delta_cap": 2,
            "corruptions": [
                {"proc": 1, "strategy": "crash_leader", "time": "5/2"},
                {"proc": 3, "strategy": "silent"},
            ],
            "seed": 3,
        },
        "7ae37a1c064d78b9",
    ),
    (
        {"n": 7, "corruptions": [[2, "early_signer", 4], [5, "vote_stuffer"]], "seed": 1},
        "7277ad71545c8a72",
    ),
    (
        {"n": 4, "corruptions": [Corruption(0, "late_qc_relayer", Fraction(1, 3))], "seed": 2},
        "cb975dab9410d35d",
    ),
    ({"n": 7, "offsets": ["two_cluster", 25], "gst": "128/3", "seed": 0}, "f45c4cc8d3cd67ef"),
    ({"n": 4, "offsets": [0, 1, "3/2", 2.5], "seed": 0}, "5a2adc893ac6a8a2"),
    ({"n": 4, "gst": 5, "sync_windows": [[5, 20], [40, None]], "seed": 0}, "f02966daa8c7a78d"),
    (
        {
            "n": 4,
            "t": 1,
            "k": 4,
            "x": 2,
            "gst": 1.5,
            "delta_actual": 0.5,
            "horizon": "100",
            "drift_epsilon": "1/100",
            "leaders": "random_permutations",
            "stop": "horizon",
            "network": "uniform_random",
            "seed": 7,
        },
        "ca4d3b1eba424953",
    ),
    ({"n": 4, "drift_rates": [1, "1/2", 1.5, 2], "seed": 0}, "0a49b9b422d05a7f"),
]

DELTA_UNITS_SPEC = {
    "delta_units": True,
    "base": {
        "n": 4,
        "delta_cap": 2,
        "gst": 3,
        "offsets": [0, 0.5, 1, 1],
        "horizon": 40,
        "corruptions": [{"proc": 0, "strategy": "silent", "time": 1}],
        "sync_windows": [[3, 10], [20, None]],
    },
    "sweeps": {"delta_actual": ["1/2", 1], "offsets": [["two_cluster", 3], "all_zero"]},
}
DELTA_UNITS_HASHES = [
    "93537803974f9be9",
    "f10704ab809186f9",
    "a7951ed83a57f07a",
    "a86f82dbd8b69bbf",
]

# cell -> (records as_v2, SHA-256 of the trace as_v1, SHA-256 of the trace as_v2,
#          records, SHA-256 of the trace as_v3, SHA-256 of the trace as_v4,
#          SHA-256 of the trace as_v5, SHA-256 of the trace as_v6,
#          SHA-256 of the trace as_v7, SHA-256 of the version 8 trace)
TRACED_CELLS = [
    (
        {
            "n": 4,
            "delta_cap": 2,
            "drift_epsilon": "1/100",
            "gst": 3,
            "stop": "horizon",
            "horizon": 60,
            "seed": 2,
        },
        393,
        "943c02cadcff239488fd6adc1515ce9981927464978417856b5e0c8a70ae0ea3",
        "bb576b1ad5bee28f52ed903f547e990a118ecc118b2c3ffdcb754c47dc65e80d",
        303,
        "4f56a324a48497a3317e65e82f5efdd681148a508f68b0979a5ed789a5568901",
        "73201971bdfb11df282741dc941d66e68c29499728e7a1a9664fc796120084cb",
        "206e9c5687bfc09365b6df8c2125a448cdce92a1253f837e931eb178310a5f6f",
        "0bc121a79db9dcf41dde8c2a22d8b3235c3f4691b68d6cf164e4242c88c2e774",
        "0994e2dfb663aad852d598e57535e9ebe9d2a2390c27d322c54cadba8947b2fa",
        "2343e882681b689a7c39fce35e13c395a27ea5c199b4f7fc6c52f576a68ad51e",
    ),
    (
        {
            "n": 4,
            "delta_cap": 2,
            "gst": 5,
            "sync_windows": [[5, 40], [80, None]],
            "network": "uniform_random",
            "stop": "horizon",
            "horizon": 150,
            "seed": 1,
        },
        1385,
        "e6d20ee41a4b8445ea31cc3bd4612ad5a8abad4ffacaecd3185b9e658b3390a7",
        "4bcad9d2333ebeff3479ef7f9b83a9cf621cfad5f1111e42257a8ab1c1059a67",
        1073,
        "befcb53442f2996a0a7520a8e05e9ca6d253b129b13fb80231ecdef4486b54bf",
        "15290b5991b9279e92073a16fce4b62c661bb433fa35a63f9f5b7467b297664d",
        "fb9978adad47b39c1a025888bd251775f6b03b62b783ae754982927ca742a654",
        "6a767a51b78d09a5fd870795e825ef1b2c73324490824ce05ed2f8930a276660",
        "c13734d3eca93eadcc83d317630fb7f35b773e1ebd831ae95641d35c059a2594",
        "30bc423f6752949ddb30d92bfa907f14e3ee6e85a9316cdec4b831f33ec5ccf7",
    ),
    (
        {
            "n": 7,
            "leaders": "random_permutations",
            "offsets": "adversarial_spread",
            "stop": "sync_plus",
            "seed": 4,
        },
        140,
        "e3dc28bc2094dcb0461112ccf7cb3cd4c0c09fca24afe901f08c9e6ced45e91e",
        "b30552d52c4ee6eadbca9110647065ab6582155c4fc36089270b441d97495067",
        104,
        "32b4c5633c4088674d0731c3df6e8a40c8a8f6719e11da1724ece6c233f2797c",
        "aedbdf05bae5dad74d41a78d4e3290f3ed32eb1ef159224fc575adc6b440c3f5",
        "f2d8a4548575cb226773f9b4d6f6ea2cfc5bbfaee65037ac926044321fccbe41",
        "cbe41d5df1a2847f12af799010aaf485a4ee14523a638a0024a02165d6eacd7c",
        "fc6e731a1ed82f595f9208632d6d0e89654491154af69f4d37a20357693fb555",
        "80a579ff48a874dc1dfe5ac59f2ba6dbbf653c1a697233bce286113f0f78f004",
    ),
    (
        {
            "n": 7,
            "delta_cap": 2,
            "gst": 3,
            "network": "uniform_random",
            "corruptions": [[1, "late_qc_relayer", "7/2"], [4, "early_signer", 2]],
            "stop": "sync_plus",
            "seed": 9,
        },
        232,
        "1cbc477fac5b0e5e3741191f3363ccd3f5be9d8265fdfe7784fab3aa38729ca7",
        "22a4eae993a4a9efbefc8bb1758225accfa1b865970fcdc5a5b117506d3001a1",
        178,
        "f9537a082461409132387ab7efa4e8cb8777688839f4c05a7d4c5ddf3c955320",
        "6097e001a9b6d43ec525470f8c9999eb98da0cbbfe997635775dcabda4e42d31",
        "308dcfdb052e42f3630903aa536424a14ff7e30cd09a1d7a8929447779f150e0",
        "d072beda2e1221bd572cea3322d8221093d98fc82e19c2b4d6e032f8c0c218b9",
        "75e4dbf0e43da0ea1851dc44c421ff886aae36c4d3af7763225373e8bf59cdce",
        "3c86cdbbb7b5abd468e28df96c4cd6f73ebecfe9f5fde56322d830de99e8c03e",
    ),
    (
        {
            "n": 4,
            "offsets": ["two_cluster", "5/2"],
            "delta_actual": "1/3",
            "network": "fixed_delta",
            "seed": 0,
        },
        37,
        "4a5ce8947266ce31ffa44fa033ff2fd3c400bb5adb75b33bc0d6773723e29ed4",
        "94ab8a1ebcb731e5f685d0e747e66545befb57b961ed032895024a9e32becadc",
        28,
        "5a6ed176181a7c2ab127d5c215ba471aae8f72ba462d2e2af4cca6fbb437ba7a",
        "ab36afb16bbba15a0d338d7fb3559266e8e4bd75098079ddffae64812335d8a0",
        "f12c939ac79d65c70286536fb118e3c80eeb44d9d19a2fede42b8d0e1de092a1",
        "3dfcb1ce77c2e7c423e61a302e6c0ac033c3ddfa69a35570377321f8d34f78e6",
        "ff06a4c6645f269bc4cdc3362bb12d2459743c4b0522f74d321a48ef4d9f03fd",
        "e784901d08e68089262e3c57f3a24bd46e92c4094fc349d8b6ad2b9d3122669e",
    ),
    (
        {
            "n": 4,
            "delta_cap": 2,
            "drift_rates": [1, "101/100", "99/100", 1],
            "sync_windows": [[0, 50], [100, None]],
            "corruptions": [[0, "selective_vc"]],
            "stop": "horizon",
            "horizon": 160,
            "seed": 5,
        },
        828,
        "efe4b83e5868b7d639132ffd754f53371bc13930834808718dca726a9c9cda33",
        "4bf75dd5e0dade7354d958ceee139b5202ff45f86a4e07c74bd3cc108e56c3d8",
        651,
        "739cfb60b64e5691d96bc572132f659f0d79b848324fa1cc308a6daf693c0a41",
        "be898c7ed3212abb24a35b1b0e35df7d07839df09f716492b303e9ed82d6c33a",
        "62a8bd3ba39e02a6c14b6a41e7b88c61d99815ef5740dcd13f85f8fd3350d91a",
        "bcfd1ae2576bd7d442ec6e9e04a5097d387ee25d4f7dca87086dea1ff5913497",
        "7c909a24daefbb65b9742b829ba0bcf41696645cf7b984e3081eae4d5199e707",
        "23d90d782828ad150013a6bc0993831cf17a8cbb0193d3f90047bb3cdb601f16",
    ),
    (
        {
            "n": 7,
            "delta_cap": 2,
            "delta_actual": 1,
            "gst": 4,
            "network": "worst_case_max_delay",
            "corruptions": [[1, "crash_leader", 3]],
            "stop": "horizon",
            "horizon": 100,
            "seed": 6,
        },
        946,
        "41cde5949732621aacb1c0333e57d837d6d7a250f66b360189d33bf03a1752bc",
        "b00dc09829c34b26de57896bba45131006ed158387ce6693f212001226581633",
        700,
        "cb45fceb28c154edf238685d05863282cea6da57f82c15e2a546be498caf7667",
        "aadb22c77cfbac18453bf2613515e6ef7aeafdfc42eae8e6e1e6c8a2dc26f1b4",
        "f743c2d8efc333096aebd08274b81ee58e826cda4269994705aab17ad216302a",
        "40ff91a5fe272741d9ed793c4ee7eecd3502d277eb5739654ad916da8026e4d2",
        "ef53eafe15b4c4ad5e7e15da68ad01a5c85b4b26b24f95300d24d36ee2fef24a",
        "fc8df473297d2301de0132eeee8ff34d61cedc1620c19c50b49334c4a4ffd2f7",
    ),
    (
        {
            "n": 31,
            "delta_actual": "1/2",
            "gst": 5,
            "network": "uniform_random",
            "corruptions": [[5, "vote_stuffer"], [17, "vote_stuffer", "3/2"]],
            "stop": "sync_plus",
            "seed": 11,
        },
        1332,
        "40be0b872061bb74ca280a0d48ca1e6f595937f8a1f6337e4674f3d2a0c052ba",
        "1c0f58009fcbc31080dc02d8e274dfc1caf04d110073a21870e75805de2edcbf",
        1062,
        "a31f4048aeafc1673db95c4299ce88e7e7e9f9a1ff2c2c1cbdbe894e56028840",
        "bd0be96586478fb7c914f5c499c90b91b86d3cac973b22fa11234c3512cafe94",
        "ca93dcba3509a32125b1f59ad98b426815620dc66481e39a821a711a706f6a4a",
        "9b31003bbd9d58d2c50437d0f64684f2d12347d92b5adfe1e332fffaabc67f37",
        "66c5579d87cdb864a60e4ae7aae0c71c276b2fb65f1a4b1852871334d6552c0d",
        "b89f542c18d988048c15ac064bb24ca69162ecd02df234c928a7d429773971f3",
    ),
]


def test_config_hash_pins():
    assert [config_hash(build_config(cell)) for cell, _ in HASHED_CELLS] == [
        digest for _, digest in HASHED_CELLS
    ]


def test_delta_units_config_hash_pins(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(DELTA_UNITS_SPEC), encoding="utf-8")
    spec, _ = load_spec(path)
    assert [config_hash(build_config(c)) for c in spec.cells()] == DELTA_UNITS_HASHES


# Drifting runs whose random draws (network delays, a relayer's wake-ups, the
# initial clocks) are scaled onto the finer grid: cell -> (records, SHA-256
# of the trace as_v3, SHA-256 of the trace as_v4, SHA-256 of the trace
# as_v5, SHA-256 of the trace as_v6, SHA-256 of the trace as_v7, SHA-256 of
# the version 8 trace). The v3 digests were recorded by the version 3
# simulator, the v4 digests by the version 4 one, the v5 digests by the
# version 5 one, the v6 digests by the version 6 one and the v7 digests by
# the version 7 one.
DRAWING_DRIFT_CELLS = [
    (
        {
            "n": 4,
            "delta_cap": 2,
            "drift_epsilon": "1/100",
            "network": "uniform_random",
            "gst": 3,
            "sync_windows": [[3, 30], [60, None]],
            "stop": "horizon",
            "horizon": 90,
            "seed": 3,
        },
        605,
        "91fcba670eb5868b723d6f384e715f790a689b5bd0817d0585c493dafd710425",
        "70bc031c6294c6f7ba59fda1f4ba7dcc5882e399f81f1ec1ec71abf4cf6476c1",
        "2881f568a1b18ceb69b446dcc301b098fc2b2224719be26f59c86f8a47586df0",
        "82af9029abcb5779304aadc5f7fa390db5d66cf8dbd0452cfd03ccd20023efff",
        "1f1222a3c0029d3a67ef263b37d5d998ee4ddef2f687fbbe77db3a968750c089",
        "7e94442f32e45aa4ec7d2184f3986b1544f1761fb4692bd92779a4000c21332d",
    ),
    (
        {
            "n": 7,
            "drift_epsilon": "1/100",
            "corruptions": [[1, "late_qc_relayer", "5/2"]],
            "stop": "horizon",
            "horizon": 60,
            "seed": 5,
        },
        1058,
        "896d3689b3921d7a3aa3d9d6763c97116ad48d1d0d6d123ab780d5674d8fd219",
        "9ab56057ed81c3c7fdf16e30f8fa7ee544a2221b963a253fbff5547a2f5cf73d",
        "c1640c411d456f65eb9705a6419d530907c478968dbf18e6f0eb4af26b1323cb",
        "6395ce9effd24fdd972707b92a32192900943ff1f33d5fb1ec0ad56a6486c795",
        "b2362fa761a20a4474a166ae67615da76b1d078e05c09d338640aeefe06c38f7",
        "854e38c97fa71c2f5e8535b9c7e289fa5b60bbabfb015fb97def4d8a9f84f554",
    ),
    (
        {
            "n": 7,
            "drift_epsilon": "1/1152",
            "offsets": "adversarial_spread",
            "network": "uniform_random",
            "stop": "sync_plus",
            "seed": 4,
        },
        114,
        "805a3ccb2048901256d6449a87eba70c8a92e6631d74a5d7b8835c6f225735d1",
        "6a8aef7c95f812d7932661a42f03ab55bedcc5cc11921e4409786e26c3419180",
        "0cff4be9011708f3f438ce79cc8c8beabbd606d4d340dde3951a85938a44ec3e",
        "7de688dbf2e78d4c279855c05d592618e10ff2f9b24f5fa3b35e70dc2e67a33c",
        "b59be28766936781fb1301267ee1936411a167d60366c9314f439cf92607e9f7",
        "5f298fadf356846a6296b8f3664789bc5ae0fbc0e9538f4f5d4a4b0efde05370",
    ),
    (
        {
            "n": 4,
            "drift_rates": ["1000003/1000000", "999983/1000000", 1, "1000033/999999"],
            "corruptions": [[3, "early_signer", 2]],
            "stop": "horizon",
            "horizon": 40,
            "seed": 1,
        },
        324,
        "f10cca62098ee585739dcf7ef1395549a17bf75e5245dad310f79ef899655be9",
        "34564b5e4e1bed8899ce77f1f0f35eef7828f3a966f7d248b1015af2bf1a3eb5",
        "c1330b70e956608780e2f2d61fdbede9a5083b43e38b83fdb1fb6b00bba9400a",
        "058df91973e8091e65c238a613cc11da334b086676c2c242e11584f3633f4d0a",
        "67f577bfd3686b93b988e0352b9858469896dcc7e462e4080e4f2f99cd47a313",
        "fc2494e545e96935acc5af637f65960272094997561476e2dfd46103b7d5ed93",
    ),
]


def test_trace_sha256_pins():
    got = []
    for cell, *_ in TRACED_CELLS:
        records = Simulation(build_config(cell)).run()
        v7 = as_v7(records)
        v4 = as_v4(v7)
        v3 = as_v3(v4)
        v2 = as_v2(v3)
        got.append(
            (
                len(v2),
                sha256(as_v1(v2)),
                sha256(v2),
                len(v3),
                sha256(v3),
                sha256(v4),
                sha256(as_v5(v7)),
                sha256(as_v6(v7)),
                sha256(v7_text(v7)),
                sha256(records),
            )
        )
    assert got == [tuple(pins) for _, *pins in TRACED_CELLS]


def test_drawing_drift_trace_sha256_pins():
    got = []
    for cell, *_ in DRAWING_DRIFT_CELLS:
        records = Simulation(build_config(cell)).run()
        v7 = as_v7(records)
        v4 = as_v4(v7)
        got.append(
            (
                len(records),
                sha256(as_v3(v4)),
                sha256(v4),
                sha256(as_v5(v7)),
                sha256(as_v6(v7)),
                sha256(v7_text(v7)),
                sha256(records),
            )
        )
    assert got == [tuple(pins) for _, *pins in DRAWING_DRIFT_CELLS]


def test_a_version_4_trace_is_refused(tmp_path, capsys):
    cell, *_ = TRACED_CELLS[2]
    text = to_jsonl(as_v4(as_v7(Simulation(build_config(cell)).run())))
    with pytest.raises(TraceParseError, match=r"^line 1: unsupported trace version 4$"):
        parse_jsonl(text)
    path = tmp_path / "v4.jsonl"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == "malformed trace: line 1: unsupported trace version 4\n"


def test_a_version_5_trace_is_refused(tmp_path, capsys):
    cell, *_ = TRACED_CELLS[2]
    text = as_v5(as_v7(Simulation(build_config(cell)).run()))
    with pytest.raises(TraceParseError, match=r"^line 1: unsupported trace version 5$"):
        parse_jsonl(text)
    path = tmp_path / "v5.jsonl"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == "malformed trace: line 1: unsupported trace version 5\n"


def test_a_version_6_trace_is_refused(tmp_path, capsys):
    # its second line, a send by name, is no array of this version, and is
    # refused as its header's version
    cell, *_ = TRACED_CELLS[2]
    text = as_v6(as_v7(Simulation(build_config(cell)).run()))
    assert text.splitlines()[1].startswith('["send",')
    with pytest.raises(TraceParseError, match=r"^line 1: unsupported trace version 6$"):
        parse_jsonl(text)
    path = tmp_path / "v6.jsonl"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == "malformed trace: line 1: unsupported trace version 6\n"


def test_a_version_7_trace_is_refused(tmp_path, capsys):
    # its deliver arrays have version 8's length, so only the header's
    # version tells the two apart
    cell, *_ = TRACED_CELLS[2]
    text = v7_text(as_v7(Simulation(build_config(cell)).run()))
    with pytest.raises(TraceParseError, match=r"^line 1: unsupported trace version 7$"):
        parse_jsonl(text)
    path = tmp_path / "v7.jsonl"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == "malformed trace: line 1: unsupported trace version 7\n"
