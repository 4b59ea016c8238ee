"""Golden stdout: the sha256 of every covered command's stdout and its exit
code, recorded once and compared byte for byte on every run.

A refactor that keeps the package's behaviour leaves every digest alone; a
deliberate change to the output must re-record the affected entries and
say why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from effdom.cli import main

# name -> (lattice descriptor, members) written as set files for the cases.
SET_FILES = {
    "rect-eds": ("rect:4x4", [(1, 2), (2, 4), (3, 1), (4, 3)]),
    "rect-voids": ("rect:3x10", [(1, 1), (1, 7), (2, 10), (3, 2), (3, 5), (3, 8)]),
    "rect-conflicts": ("rect:4x4", [(1, 1), (1, 2), (3, 3), (4, 1)]),
    "rect-torus": ("rect-torus:5x5", [(1, 3), (2, 1), (3, 4), (4, 2), (5, 5)]),
    "tri": ("tri:5", [(1, 1), (1, 4), (3, 2), (4, 1)]),
    "tri-torus": ("tri-torus:7x7", [(1, 2), (2, 6), (3, 3), (4, 7), (5, 4), (6, 1), (7, 5)]),
    "hex": ("hex:4x6", [(1, 1), (1, 5), (2, 3), (3, 1), (4, 4)]),
    "hex-torus": ("hex-torus:4x4", [(1, 1), (2, 3), (3, 3), (4, 1)]),
    "bad-coord": ("rect:3x3", [(1, 1), (4, 4)]),
    # Boards whose coverage array fits on one line.
    "rect-1x3": ("rect:1x3", [(1, 2)]),
    "rect-1x3-conflicts": ("rect:1x3", [(1, 1), (1, 2)]),
    "rect-1x1-empty": ("rect:1x1", []),
}

_MOTIF_CASES = [
    (
        f"motif-{kind}-{fmt}" + ("-win" if window else ""),
        ["motif", "--lattice", kind, "--format", fmt] + (["--window", window] if window else []),
    )
    for kind, window in (("rect", "11x11"), ("tri", "9x9"), ("hex", "8x10"))
    for fmt in ("json", "ascii")
    for window in (None, window)
]

_SOLVE_CASES = [
    (f"solve-{d}-{method}", ["solve", d, "--method", method])
    for d, methods in (
        ("rect:5x5", ("auto", "dp", "brute")),
        ("rect:4x9", ("auto", "dp", "brute")),
        ("rect:20x3", ("auto", "dp")),
        ("rect:16x2", ("auto", "dp")),
        ("rect-torus:5x5", ("auto", "dp", "brute")),
        ("tri:6", ("auto", "dp", "brute")),
        ("tri-torus:4x4", ("auto", "brute")),
        ("hex:4x6", ("auto", "dp", "brute")),
        ("hex-torus:4x6", ("auto", "brute")),
        ("rect:8x8", ("brute",)),
    )
    for method in methods
]

CASES = dict(
    [
        ("construct-eds-p2-1", ["construct", "eds-p2", "--n", "1"]),
        ("construct-eds-p2-7", ["construct", "eds-p2", "--n", "7"]),
        ("construct-eds-p2-4", ["construct", "eds-p2", "--n", "4"]),
        ("construct-p2-even-8", ["construct", "p2-even", "--n", "8"]),
        ("construct-p2-even-6", ["construct", "p2-even", "--n", "6"]),
        ("construct-p3-3", ["construct", "p3", "--n", "3"]),
        ("construct-p3-10", ["construct", "p3", "--n", "10"]),
        ("construct-p3-11", ["construct", "p3", "--n", "11"]),
        ("construct-p3-12", ["construct", "p3", "--n", "12"]),
        ("construct-square-4", ["construct", "square", "--n", "4"]),
        ("construct-square-5", ["construct", "square", "--n", "5"]),
        ("construct-square-6", ["construct", "square", "--n", "6"]),
        ("construct-square-9", ["construct", "square", "--n", "9"]),
        ("construct-knight-7", ["construct", "knight", "--n", "7"]),
        ("construct-knight-12", ["construct", "knight", "--n", "12"]),
        ("construct-knight-13", ["construct", "knight", "--n", "13"]),
        ("construct-knight-10", ["construct", "knight", "--n", "10"]),
        ("construct-knight-11", ["construct", "knight", "--n", "11"]),
        ("construct-knight-14", ["construct", "knight", "--n", "14"]),
        ("construct-knight-6", ["construct", "knight", "--n", "6"]),
        ("construct-p3-10-ascii", ["construct", "p3", "--n", "10", "--render", "ascii", "--glyphs", "#-_"]),
        ("construct-knight-9-svg", ["construct", "knight", "--n", "9", "--render", "svg"]),
        *[(f"verify-{name}", ["verify", f"@{name}"]) for name in SET_FILES],
        ("verify-rect-eds-override", ["verify", "@rect-eds", "--lattice", "rect:5x5"]),
        ("augment-rect-voids", ["augment", "@rect-voids"]),
        ("augment-rect-eds", ["augment", "@rect-eds"]),
        ("augment-rect-conflicts", ["augment", "@rect-conflicts"]),
        ("augment-tri", ["augment", "@tri"]),
        ("augment-rect-1x3", ["augment", "@rect-1x3"]),
        ("augment-rect-1x1-empty", ["augment", "@rect-1x1-empty"]),
        *[
            (f"render-{name}-{fmt}", ["render", "--format", fmt, f"@{name}"])
            for name in ("rect-voids", "rect-conflicts", "tri", "hex", "rect-torus", "tri-torus", "hex-torus")
            for fmt in ("ascii", "svg")
        ],
        ("render-tri-glyphs", ["render", "@tri", "--glyphs", "X+-"]),
        *_MOTIF_CASES,
        ("motif-rect-residue-2-win", ["motif", "--lattice", "rect", "--residue", "2", "--window", "7x9"]),
        ("motif-tri-residue-3-ascii-win", ["motif", "--lattice", "tri", "--residue", "3", "--window", "8x8", "--format", "ascii"]),
        ("motif-hex-residue-1", ["motif", "--lattice", "hex", "--residue", "1"]),
        *_SOLVE_CASES,
        ("table-7-10", ["table", "--from", "7", "--to", "10"]),
        ("table-7-20-width-9", ["table", "--from", "7", "--to", "20", "--dp-width", "9"]),
        ("conjecture-7-10", ["conjecture", "--from", "7", "--to", "10"]),
        ("conjecture-7-12-width-8", ["conjecture", "--from", "7", "--to", "12", "--dp-width", "8"]),
    ]
)

# case -> (exit code, sha256 of stdout)
GOLDEN = {
    "augment-rect-1x1-empty": (0, "2581579ad09580b2d81b3414dbdd53f1a2031a8cf52889da7bdea3aecd20b183"),
    "augment-rect-1x3": (0, "9ef55a862c05d32388e2f0b301d35d4509ba017ecfa289b5acc29cebf56fa6ad"),
    "augment-rect-conflicts": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "augment-rect-eds": (0, "16da300de482b2c030074376a8aee440d8b39f425d599ff4a9dfbfca196d3740"),
    "augment-rect-voids": (0, "ce169224302ed1663be8c6ee7aa490ba7b812460b11e4196ce9ce660d25d97fe"),
    "augment-tri": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "conjecture-7-10": (0, "8f6dc08be664748495821f97909605b01aa378596f7da41ca7f69aaab469c442"),
    "conjecture-7-12-width-8": (0, "b770cb5563cac04dbecf457782fa644380a19abcfa74230c70505503e4b6f336"),
    "construct-eds-p2-1": (0, "f5c8861ac9ee5428f480a12867bc9e1d9ea34fb20fbd201b85adfccf4ae9a5b9"),
    "construct-eds-p2-4": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "construct-eds-p2-7": (0, "818fb0845ada7a6064d2727aedcbfccc4eba0e9374ac039ab32740f64d3eb426"),
    "construct-knight-10": (0, "44f36fd9e41a5a7e04c3e12797ca8b0475b2f868a4a5cc199d2457b4f87a905e"),
    "construct-knight-11": (0, "8230979bf512c7769e093ad3a7e813009ea11c92b7f1ee516cebe94a8f7e0dd3"),
    "construct-knight-12": (0, "ae14cff504320f0076112e7d6eca6cb4e15e470846f6597d3953fe9fa1aa5f7c"),
    "construct-knight-13": (0, "f9efb23f645e7ebc4187d0a3982826d495ca16698abce2fdc4517daf0eb769df"),
    "construct-knight-14": (0, "56c53b57e03c976c1dcf4497f2da4e0b71cfef76b39b29d0f75f95f071b16402"),
    "construct-knight-6": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "construct-knight-7": (0, "a17c9acb8d70c34f8de8572779d1c5e8735e6541c52b7381468483fc99d28735"),
    "construct-knight-9-svg": (0, "9143e946cb339fd8381721c388410e920923b1e061696f0ef1e3ee34957f6442"),
    "construct-p2-even-6": (0, "9b63a4b39264e8b73c8d3ab4ae500b2888c373e2252913df2e0340c2a3f6cff0"),
    "construct-p2-even-8": (0, "590e3fe06207f8ad6c3a7076ebbd48544400e066aff302270276d1c364d8f1d8"),
    "construct-p3-10": (0, "80b43381bdef005a2a6581bbd770ad47bcdc5a30a2b4283b716999d4d01c7553"),
    "construct-p3-10-ascii": (0, "6e7122e508110a33ebc48cc5538ea800fc7a9519b3bdd0dd32b4da6cf34d70cb"),
    "construct-p3-11": (0, "1c70298713ea5f40e0ce05fd0ca7f147263e6daf104cbbf699786c77922da09e"),
    "construct-p3-12": (0, "ad889f1b9ddbe273dd430925b159df73d20cb7e7d97d95f6419d2f467112e947"),
    "construct-p3-3": (0, "e63d35d3670786f9b483cd14711f7edc63c34e870180af68e41e3dff91244e8d"),
    "construct-square-4": (0, "52aed48520e74e7249c20c4442fd7bc0576758912f8e2a0442ffffc2508add57"),
    "construct-square-5": (0, "4aa8ef4e0a4bac41563b61ad6f5aa297d684717716b8f6fc76e36e138a9e5a68"),
    "construct-square-6": (0, "28e9a81bafb12f9da142b1b5d8dc49e0dc96ce2c0500c3696f839da9cb26ea1d"),
    "construct-square-9": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "motif-hex-ascii": (0, "559e2b9d1cea6188f93700d8e91f028994973cb475e1057ab9ca2cd562d6ca08"),
    "motif-hex-ascii-win": (0, "c0d300b6f460cd221090a32f6e75c6208f464d6e93e1e87b17bb2357100ba196"),
    "motif-hex-json": (0, "1999fbe017286baaca0c752744250947366a2dbbd7fffd1b1c81ae7e63e9e855"),
    "motif-hex-json-win": (0, "60551507746bf4a181af6e10e34bb3a0847535f49abd0219f90524364c61e410"),
    "motif-hex-residue-1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "motif-rect-ascii": (0, "f6785219e06e858967969b2be2b370a8d7687065c6f3bae52d86717fa0869581"),
    "motif-rect-ascii-win": (0, "008140e9b15a05f069441b635f6a62f890ad37b3f0d6ecaab92ea1c3e181887b"),
    "motif-rect-json": (0, "d3739bd46aaffedc3e79977a42c4f56b7b0d848012a33ebdf1ddf9e6e2713e16"),
    "motif-rect-json-win": (0, "87321a51f25e37876413ea2b83a58add4bef9d076ccc7dbb3cbb0abead242756"),
    "motif-rect-residue-2-win": (0, "324e027c651dcd6440a4fa43d17f9b1d134da606550fb135a3915999254a7ed1"),
    "motif-tri-ascii": (0, "eb76f1370fd6f21d7e6b6880ccaadef60f4823a264249e2707b4cae8845330ff"),
    "motif-tri-ascii-win": (0, "3fd953348e7a7488cbb77600becb4d67742abe671a741b75afcb7c7c51c78812"),
    "motif-tri-json": (0, "06144062bd9c4d389075a3018d1e12cde085d531229afc686de816f9f9589466"),
    "motif-tri-json-win": (0, "1dddfe5e72b7e740038414a2d33891e9a7d658644c086d9c114d798b9b5be8b9"),
    "motif-tri-residue-3-ascii-win": (0, "a4e280ea1572a9baeaa4354c5f39f21906def630d1101830e8084f41841f3d4c"),
    "render-hex-ascii": (0, "2c181458fe3c24c24c51d7f48c31a2637cebeb193f61fd4d18949bd7be868f4f"),
    "render-hex-svg": (0, "6f38d3007d4bfacee90f592ca79a90fda5ff2a33af4aff5ce6b7d2de089b553f"),
    "render-hex-torus-ascii": (0, "559e2b9d1cea6188f93700d8e91f028994973cb475e1057ab9ca2cd562d6ca08"),
    "render-hex-torus-svg": (0, "fddd746bc8d0b4b9be3c0db307817feff6f631d0ed07f02b72f242a103e2433e"),
    "render-rect-conflicts-ascii": (0, "2d2b3db2f1a9e49d40599dd7a63dcf0cdbe629ddb476b3794a9aa557c7b65d7c"),
    "render-rect-conflicts-svg": (0, "53d1b624c0d814334bcdac021954303545a09bd48ff0c9cd4c04df15346f4cac"),
    "render-rect-torus-ascii": (0, "f6785219e06e858967969b2be2b370a8d7687065c6f3bae52d86717fa0869581"),
    "render-rect-torus-svg": (0, "b59a8e4fc4d2d5525adac53e674426c85447c4d74f2f813557186614545d1106"),
    "render-rect-voids-ascii": (0, "c56c3381291adf945ab83036d56175d2842f33234cd7644635a05cf8ea4b95b2"),
    "render-rect-voids-svg": (0, "84990db7db36eedf1f5f9af1bb7c86decc34e2b26fdbc804ac7a04945398a497"),
    "render-tri-ascii": (0, "376621025121a5c01782bea36b1cb9cc06ae7213d4807144f771fb9e811b0f80"),
    "render-tri-glyphs": (0, "9e5e9bdfaee1576996e6295710c55450c396d2ba2ff83a6529279335eae41b70"),
    "render-tri-svg": (0, "e8b06eef3643e62424e804d10153713fa42de55564165724109fa1e1cc67cc5c"),
    "render-tri-torus-ascii": (0, "5ba6fc17b170dacde604343541a2fe612a0e5160bf36fe3a1b4f56c06e3e68a8"),
    "render-tri-torus-svg": (0, "796dda47c6a116e5616aa21686e1acea0d98e1a53a902f4fc6656e6c6ad74740"),
    "solve-hex-torus:4x6-auto": (0, "5e15d9d349a80aa011175783a726751990e27b8e6241da78be13fc89dcfd8846"),
    "solve-hex-torus:4x6-brute": (0, "5e15d9d349a80aa011175783a726751990e27b8e6241da78be13fc89dcfd8846"),
    "solve-hex:4x6-auto": (0, "8486074e7fd92cde7cfcfd03de5ca3011b466987b96db21c7d350a246405f4ed"),
    "solve-hex:4x6-brute": (0, "8486074e7fd92cde7cfcfd03de5ca3011b466987b96db21c7d350a246405f4ed"),
    "solve-hex:4x6-dp": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "solve-rect-torus:5x5-auto": (0, "aa0f50cc8c4a21088ec0752fb82e40ad0aabdb45aa29473c1c56b3678f097f5f"),
    "solve-rect-torus:5x5-brute": (0, "aa0f50cc8c4a21088ec0752fb82e40ad0aabdb45aa29473c1c56b3678f097f5f"),
    "solve-rect-torus:5x5-dp": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "solve-rect:16x2-auto": (0, "2e2c8360679df6194e4c7d3dc012ea13f148ea1a7889e931c0fa90b67cf9ca0b"),
    "solve-rect:16x2-dp": (0, "2e2c8360679df6194e4c7d3dc012ea13f148ea1a7889e931c0fa90b67cf9ca0b"),
    "solve-rect:20x3-auto": (0, "ded2a9bacaf3b395212d2ae5336d8185ca5a0dc70b9c7843716dd97302422c5d"),
    "solve-rect:20x3-dp": (0, "ded2a9bacaf3b395212d2ae5336d8185ca5a0dc70b9c7843716dd97302422c5d"),
    "solve-rect:4x9-auto": (0, "0d18efe7c737a4e43a831fe9918ed7c8afcfd5c96af59db65f68b1f352ca27dc"),
    "solve-rect:4x9-brute": (0, "95fa7459423f1bd5ea9f741e7924549c9cd97f1593700793a3d8127e67cae5de"),
    "solve-rect:4x9-dp": (0, "0d18efe7c737a4e43a831fe9918ed7c8afcfd5c96af59db65f68b1f352ca27dc"),
    "solve-rect:5x5-auto": (0, "dbfb762f662ea14e60df2e7ac4cbad876a5536764ebf805c70d3e0609bdc7db6"),
    "solve-rect:5x5-brute": (0, "dff52d68a471b8176927e586e6c3eb79a1430201297978d4965745b2f9b8ef24"),
    "solve-rect:5x5-dp": (0, "dbfb762f662ea14e60df2e7ac4cbad876a5536764ebf805c70d3e0609bdc7db6"),
    "solve-rect:8x8-brute": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "solve-tri-torus:4x4-auto": (0, "2ac6a94b226fd0b149d7b7f0d32bbbac89ede42a52c50e0f4dda97a948ab809d"),
    "solve-tri-torus:4x4-brute": (0, "2ac6a94b226fd0b149d7b7f0d32bbbac89ede42a52c50e0f4dda97a948ab809d"),
    "solve-tri:6-auto": (0, "f013e10471294192d89974f958f334e26ee8cba04c5bd3b9c2a4c9719edc4429"),
    "solve-tri:6-brute": (0, "f013e10471294192d89974f958f334e26ee8cba04c5bd3b9c2a4c9719edc4429"),
    "solve-tri:6-dp": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "table-7-10": (0, "6a18e1152dca787e776c40cb84d0279b81ec6fc3e56f75b3d0431de9b12267c4"),
    "table-7-20-width-9": (0, "6dfd83bf46cfe31136e8f6938bc75e57550904e91a4c6874b067d784f2c0f65a"),
    "verify-bad-coord": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-hex": (1, "0d8c9242390b7802fe0a37024943554c4095b4b2fb55452939fce00ad18a24ff"),
    "verify-hex-torus": (0, "e7ac26d5f575c9e63f3136129e91369271e5a4d59448b4cff3c36c44ce210067"),
    "verify-rect-1x1-empty": (1, "4b806800f844ab9b9ef1ce7accd1328cd4f85f5b1dfb17bc4fdb8574f168c705"),
    "verify-rect-1x3": (0, "d1c62752f793579850150c6baddea64815977c690ea6222ad75be140e8f367a9"),
    "verify-rect-1x3-conflicts": (3, "6d0cf7187cfb683c781ea68baaee9d3b61a9d6b831df77ef7afce5072cd4e6df"),
    "verify-rect-conflicts": (3, "703d9acad582fbe04bffd196127e07b38c789759b811306043cc1f84fa6c94ac"),
    "verify-rect-eds": (0, "bf8529e33e4b0ec22e821a737f31fbd949bff24d559c42e1a4d417c363a7f573"),
    "verify-rect-eds-override": (1, "233522b6eef3ceee05fe982d89b9cf96a1c1729762878c6cf63f3a48fe710ca8"),
    "verify-rect-torus": (0, "c3bb21eb741050f7dcdfd9b0bc73e0b0cceb95143e5d11df889a5e783b190931"),
    "verify-rect-voids": (1, "0b8f052670223700c3b4e7c2ac7d122bc90bab94c81c0222c49a471ee2ea6f1d"),
    "verify-tri": (3, "ebccea396827e873e074605936e843019b4684bf9bef37b1b3cbb45d14c8c12f"),
    "verify-tri-torus": (0, "1ef1d38908f907928e57a22963603e6fa050b41909f6dbb76c19b673ef06ba8a"),
}


def capture(name, tmp_path):
    """Run one case; ``@name`` arguments become paths of written set files."""
    argv = []
    for arg in CASES[name]:
        if arg.startswith("@"):
            lattice, members = SET_FILES[arg[1:]]
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps({"lattice": lattice, "set": [list(v) for v in members]}))
            arg = str(path)
        argv.append(arg)
    return argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, capsys):
    code = main(capture(name, tmp_path))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[name]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)
