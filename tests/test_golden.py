"""Byte identity of the CLI on the whole catalog.

Each command below runs in process through `cli.run`, and the sha256 of its
(exit code, stdout, stderr), cut to 16 hex digits, must match the table.
A change meant to keep outputs byte-identical passes it unchanged; only an
intended output change records it again, with:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.record()"
"""

import contextlib
import hashlib
import io
import json

from stratabord import catalog
from stratabord.cli import run

_PER_ENTRY = (
    "validate {} --json",
    "stratify {} --json",
    "links {} --all --json",
    "ih {} --json",
    "classify {} --class witt:Q --via both --witness --json",
    "classify {} --class ip --json",
)


def commands():
    out = []
    for name in catalog.names():
        out += [c.format(f"catalog:{name}") for c in _PER_ENTRY]
        out.append(f"catalog emit {name}")
    return out


def digests():
    table = {}
    for command in commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(command.split())
        blob = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
        table[command] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return table


def record():
    print("GOLDEN = {")
    for command, digest in digests().items():
        print(f"    {command!r}: {digest!r},")
    print("}")


GOLDEN = {
    'validate catalog:S1 --json': '4bfc2c057383cc94',
    'stratify catalog:S1 --json': '944bbaae96706c0c',
    'links catalog:S1 --all --json': '74ff6a9e86ea3a62',
    'ih catalog:S1 --json': '27402366dc654d6e',
    'classify catalog:S1 --class witt:Q --via both --witness --json': 'deb97e64fcf03892',
    'classify catalog:S1 --class ip --json': '1504efd0fc0b0281',
    'catalog emit S1': '48a11123a9823c7e',
    'validate catalog:S2 --json': '00c0eb3be1f7ff61',
    'stratify catalog:S2 --json': '642679dbcd74bf67',
    'links catalog:S2 --all --json': 'b40eda85cf2ec7fa',
    'ih catalog:S2 --json': '96854e02620c2be9',
    'classify catalog:S2 --class witt:Q --via both --witness --json': '68ae9c60fb1ce83d',
    'classify catalog:S2 --class ip --json': '91b5653d490b0d3e',
    'catalog emit S2': '9ca6de2f80c26d90',
    'validate catalog:S3 --json': '879da7848ef6e28a',
    'stratify catalog:S3 --json': 'b8bb83823bd799b6',
    'links catalog:S3 --all --json': 'a56b86728e5846d1',
    'ih catalog:S3 --json': '81bce8a98e580ed1',
    'classify catalog:S3 --class witt:Q --via both --witness --json': '3c38e13bff94821a',
    'classify catalog:S3 --class ip --json': '52c1667355a4623a',
    'catalog emit S3': 'e9fd71f767bc713e',
    'validate catalog:S4 --json': '28a04fe1d3eaa1af',
    'stratify catalog:S4 --json': '0b3d7fc32e89e783',
    'links catalog:S4 --all --json': 'f10d19674f3de2d2',
    'ih catalog:S4 --json': '246dd0f72525a659',
    'classify catalog:S4 --class witt:Q --via both --witness --json': '5fb4fe2e3fad93e2',
    'classify catalog:S4 --class ip --json': '5b13edf95456e6d6',
    'catalog emit S4': '5ced811e25b8dd51',
    'validate catalog:T2 --json': '50b6190c1805d35c',
    'stratify catalog:T2 --json': '78a781aed0071ade',
    'links catalog:T2 --all --json': '7c402e0a482bf9c6',
    'ih catalog:T2 --json': '3264e32c9f836ad1',
    'classify catalog:T2 --class witt:Q --via both --witness --json': '778bf925be397af7',
    'classify catalog:T2 --class ip --json': 'dada3ac95cfa814d',
    'catalog emit T2': '80de05ac09c904a9',
    'validate catalog:RP2 --json': 'fc8f00cfc3c91736',
    'stratify catalog:RP2 --json': '8b17cc52301e629a',
    'links catalog:RP2 --all --json': '227fb050983c36ab',
    'ih catalog:RP2 --json': 'f1dd595ff316a5c0',
    'classify catalog:RP2 --class witt:Q --via both --witness --json': '2737069c63916de2',
    'classify catalog:RP2 --class ip --json': '7f4a990056bd2d4c',
    'catalog emit RP2': 'f6c3dfa1b1ff92eb',
    'validate catalog:RP3 --json': '56f47508b76e1a7e',
    'stratify catalog:RP3 --json': '0859f58917f67a9c',
    'links catalog:RP3 --all --json': 'ffc951b281f311ae',
    'ih catalog:RP3 --json': '959e514de681db83',
    'classify catalog:RP3 --class witt:Q --via both --witness --json': '81455d948df43479',
    'classify catalog:RP3 --class ip --json': 'cce986bed0c357c2',
    'catalog emit RP3': 'adbcba9a4e39b275',
    'validate catalog:T3 --json': '2142133182e1e74d',
    'stratify catalog:T3 --json': '48dc22a70bd6c8ee',
    'links catalog:T3 --all --json': '74954117728c02ff',
    'ih catalog:T3 --json': 'fa9b91923627e157',
    'classify catalog:T3 --class witt:Q --via both --witness --json': '7865506cff68e762',
    'classify catalog:T3 --class ip --json': 'd8a32b69b48e3ce6',
    'catalog emit T3': '1564fa6b5614a6dc',
    'validate catalog:Sigma-S1 --json': 'e5d4cf9a6e8ff4e2',
    'stratify catalog:Sigma-S1 --json': '117730f08091a011',
    'links catalog:Sigma-S1 --all --json': '2699854ae06dd1ee',
    'ih catalog:Sigma-S1 --json': 'a0d5772e5eb6805c',
    'classify catalog:Sigma-S1 --class witt:Q --via both --witness --json': '2a508c306d3c455d',
    'classify catalog:Sigma-S1 --class ip --json': '936d1153bce14fba',
    'catalog emit Sigma-S1': '91188b0acaa48b6f',
    'validate catalog:Sigma-T2 --json': '3615d965ef7909ad',
    'stratify catalog:Sigma-T2 --json': '25a0f59746c2ae7c',
    'links catalog:Sigma-T2 --all --json': '5ffe4638484f21c2',
    'ih catalog:Sigma-T2 --json': 'e1d32ea0c4900f99',
    'classify catalog:Sigma-T2 --class witt:Q --via both --witness --json': 'acd5932e03a50db3',
    'classify catalog:Sigma-T2 --class ip --json': '92b09875b504b82d',
    'catalog emit Sigma-T2': 'a12492789af11c39',
    'validate catalog:Sigma-T3 --json': '1f0d87085ddb7ec5',
    'stratify catalog:Sigma-T3 --json': '85482ce7bb489773',
    'links catalog:Sigma-T3 --all --json': '4a2e4653aac87b58',
    'ih catalog:Sigma-T3 --json': '9cd4a6f59fd39ab4',
    'classify catalog:Sigma-T3 --class witt:Q --via both --witness --json': 'dc9821af1802e3c5',
    'classify catalog:Sigma-T3 --class ip --json': '330a29011c66b256',
    'catalog emit Sigma-T3': '15c382b776ffa93d',
    'validate catalog:Sigma-RP2 --json': '35e54d2fd84faf1f',
    'stratify catalog:Sigma-RP2 --json': '97d832df605ca02c',
    'links catalog:Sigma-RP2 --all --json': '60a30b361a17655c',
    'ih catalog:Sigma-RP2 --json': 'd95279365571c579',
    'classify catalog:Sigma-RP2 --class witt:Q --via both --witness --json': '58d11d21fc82a982',
    'classify catalog:Sigma-RP2 --class ip --json': '064534c730677b9f',
    'catalog emit Sigma-RP2': '829ed2ce6b72a632',
    'validate catalog:Sigma-RP3 --json': '15cbb60bee49361f',
    'stratify catalog:Sigma-RP3 --json': '0bc9651ef22a85f1',
    'links catalog:Sigma-RP3 --all --json': '843c4334224479c8',
    'ih catalog:Sigma-RP3 --json': '8e8320b86e28782b',
    'classify catalog:Sigma-RP3 --class witt:Q --via both --witness --json': '0234c8e5898105e1',
    'classify catalog:Sigma-RP3 --class ip --json': 'a0aaf6366488ff50',
    'catalog emit Sigma-RP3': 'fb35b323549ce5fc',
}


def test_catalog_commands_are_byte_identical():
    got = digests()
    assert sorted(got) == sorted(GOLDEN)
    assert [c for c in GOLDEN if got[c] != GOLDEN[c]] == []
