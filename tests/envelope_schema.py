"""JSON Schema for the CLI output envelope and the pinned digests of the
commands' outputs, shared by the CLI and acceptance tests."""

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["schemaVersion", "command", "input", "result", "warnings"],
    "additionalProperties": False,
    "properties": {
        "schemaVersion": {"type": "integer", "const": 2},
        "command": {"type": "string"},
        "input": {"type": "object"},
        "result": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}

# Arbitrary-precision values must travel as decimal strings.
DECIMAL_STRING = {"type": "string", "pattern": r"^-?[0-9]+$"}

FRACTION_SCHEMA = {
    "type": "object",
    "required": ["num", "den"],
    "additionalProperties": False,
    "properties": {"num": DECIMAL_STRING, "den": DECIMAL_STRING},
}

# sha256 of the stdout of every command, pinned so that a refactor that
# changes any output byte fails; the same under any PYTHONHASHSEED. The two
# strata tables after the first cover the text rows and subtuples of several
# lengths; the search pins, with no --out, cover the inline certificate list.
ENVELOPE_SHA256 = {
    ("invariants", "4", "5", "9", "19", "--strata", "--json"):
        "c40c1d6aee9f043d3c17f6a2e4fb384ac2aa93dccc22644fb392e79145f936de",
    ("family", "sigma-m", "--from", "4", "--to", "200", "--json"):
        "f44936894c18d6472e75dd111bcc745b80e052ad98d346cdd929768c0b779e06",
    ("verify-paper", "--json"):
        "9f697441ecd4bdcd061bd39c15110f381aed2c78cc2bb7f6bba758eab97dcd29",
    ("invariants", "4", "5", "9", "19", "--strata"):
        "a7c01a8a6e933b669660c4409cf4c7663dba5a4765c0bb776d7f976f1d609e34",
    ("invariants", "6", "10", "15", "7", "11", "--strata", "--json"):
        "3632b08b00d066941d17acd5df3d5b0bc3c8bf38b6869804306f0c713c9aff01",
    ("family", "fermat", "--ell", "2", "--n", "3", "--scan", "3", "--json"):
        "c69837e9d8fdac1b4492aff178a2aaf2601d564e581bd50387ea79977db07513",
    ("criterion", "4", "5", "9", "19", "--json"):
        "2eff3de3f75ee4360ba4dbc6cb57ea369297bafc20cf1d3714d12e6f90bb9be4",
    ("criterion", "6", "10", "15", "7", "11", "--json"):
        "6585b0834da1352903dfebb51404616a5c85a2ae150a3f79afeb611440e41264",
    ("sum", "4,5,9,19", "+", "4,5,9,19", "--json"):
        "9e4b883d58f6491c6d732b079241815c8febbf6cc1c843ab173e1ca50930c6e7",
    ("sum", "4,5,9,19", "+", "4,5,9,19"):
        "1385babab90fd0c82865971f6917e18475efdf9ece39bc5d5a3dc1c8a4262cfa",
    ("search", "--max-exponent", "8", "--json"):
        "254b0647b17668af71a4499ba421db11e1792ef94e386704d0981214ad017978",
    ("search", "--max-exponent", "8"):
        "612d8c2dc41d2d2c8b8960eceb2d16b6f30dcd9d455b3240771201744dbd5a48",
}
