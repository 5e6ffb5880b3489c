"""JSON Schema for the CLI output envelope, shared by the CLI and acceptance tests."""

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
