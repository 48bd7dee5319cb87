"""Pinned sha256 of every artifact of fixed CLI runs on small synthetic markets.

The determinism test in test_acceptance compares two runs of the same code;
these hashes compare the code against the bytes it produced when they were
captured, so a refactor that changes any output byte fails here. A change
that alters bytes on purpose updates GOLDEN and says why in CHANGES.md; the
assertion message prints the hashes the current code produces.
"""

import csv
import hashlib
import io
import json
import os

import pytest
from conftest import synthetic_market_bytes

from stocksignals import cli

SIX_FEATURES = (
    "PX_OFFICIAL_CLOSE",
    "PX_VOLUME",
    "PE_RATIO",
    "buy_percent",
    "std_5day",
    "std_10day",
)

CONFIG = {
    "data": "market.csv",
    "out": "config",
    "seed": 7,
    "label": {"horizons": [1, 3, 5], "up_threshold": 1.005, "down_threshold": 0.995},
    "split": {"train_fraction": 0.6},
    "classifier": {"kind": "decision_tree", "max_depth": 5, "min_samples_split": 4},
    "rank": {
        "n_components": 4,
        "weights": [4, 3, 2, 1],
        "contribution_threshold": 0.15,
        "top_k": 5,
    },
    "backtest": {
        "fee_per_transaction": 0.02,
        "take_profit_fraction": 0.015,
        "stop_loss_fraction": 0.02,
        "signal_horizon": 5,
        "liquidate_at_end": False,
    },
}

# (row, column, text) written over synthetic_market_bytes(3, 40, seed=8):
# one cell per demotion rule, a dropped row per kind of missing cell, rows
# that clean keeps but assembly drops, a -0 count and an overflowing close.
# Rows 0-39 are TK00, 40-79 TK01 and 80-119 TK02, each ascending by date.
DIRTY_CELLS = (
    (3, "PE_RATIO", "abc"),
    (5, "PX_VOLUME", "nan"),
    (7, "SHORT_INT", "inf"),
    (8, "BEST_EPS", "-inf"),
    (12, "PX_OFFICIAL_CLOSE", "0"),
    (14, "PX_OFFICIAL_CLOSE", "-2.5"),
    (16, "TOT_SELL_REC", "-1"),
    (18, "TOT_HOLD_REC", "1.5"),
    (20, "RETURN_ON_ASSET", ""),
    (22, "date", ""),
    (24, "ticker", ""),
    (26, "TOT_ANALYST_REC", "0"),  # zero total: kept, then dropped by assembly
    (26, "TOT_BUY_REC", "0"),
    (26, "TOT_SELL_REC", "0"),
    (26, "TOT_HOLD_REC", "0"),
    (28, "TOT_BUY_REC", "99"),  # a count above the total
    (30, "TOT_BUY_REC", "-0"),
    (31, "TOT_HOLD_REC", "-0.0"),
    (33, "PE_RATIO", "-0.0"),
    (52, "PX_OFFICIAL_CLOSE", "1e308"),  # the rolling std overflows to nan
)


def dirty_market_bytes() -> bytes:
    lines = synthetic_market_bytes(n_tickers=3, n_days=40, seed=8).decode().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for row, column, text in DIRTY_CELLS:
        rows[row][header.index(column)] = text
    return ("\n".join(",".join(cells) for cells in [header, *rows]) + "\n").encode()


# (ticker, column, day, text) written over synthetic_market_bytes(3, 30, seed=4),
# whose tickers are renamed to QUOTED_TICKERS: a signed zero and floats on
# both sides of the points where repr switches to exponent form.
QUOTED_TICKERS = ("TK,00", 'TK"01', "TK 02  B")
QUOTED_CELLS = (
    (0, "RETURN_ON_ASSET", 12, "-0.0"),
    (1, "RETURN_ON_ASSET", 20, "-0"),
    (0, "SHORT_INT_RATIO", 14, "1e-05"),
    (1, "SHORT_INT_RATIO", 15, "0.0001"),
    (2, "SHORT_INT_RATIO", 16, "9.99e-05"),
    (0, "CUR_MKT_CAP", 17, "1e+16"),
    (1, "CUR_MKT_CAP", 18, "9999999999999998"),
    (2, "CUR_MKT_CAP", 19, "12345678901234567"),
    (2, "BEST_CAPEX", 21, "0.1234567890123456789"),
)


def quoted_market_bytes() -> bytes:
    """A market CSV, every cell quoted, whose tickers need quoting in dataset.csv."""
    header, *rows = csv.reader(io.StringIO(synthetic_market_bytes(3, 30, seed=4).decode()))
    ticker_at = header.index("ticker")
    for row in rows:
        row[ticker_at] = QUOTED_TICKERS[int(row[ticker_at][2:])]
    for ticker, column, day, text in QUOTED_CELLS:
        rows[30 * ticker + day][header.index(column)] = text
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows([header, *rows])
    return out.getvalue().encode()


# run name -> argv; the output directory is named after the run, and runs
# execute in this order (backtest-model-file reuses pipeline-forest's model).
# Runs read market.csv unless they name --data.
RUNS = {
    "pipeline-forest": ["pipeline", "--seed", "42"],
    "evaluate-knn": ["evaluate", "--model", "knn", "--seed", "3"],
    "evaluate-gaussian-nb": ["evaluate", "--model", "gaussian-nb", "--seed", "3"],
    "evaluate-tree-entropy": [
        "evaluate", "--model", "decision-tree", "--criterion", "entropy", "--seed", "5",
    ],
    "evaluate-by-sector": ["evaluate", "--by-sector", "--trees", "3", "--seed", "8"],
    "pipeline-features": ["pipeline", "--features", "six.txt", "--trees", "4", "--seed", "9"],
    "evaluate-knn-by-sector": ["evaluate", "--model", "knn", "--by-sector", "--k", "3"],
    "pipeline-knn-features": ["pipeline", "--model", "knn", "--features", "six.txt", "--k", "7"],
    "pipeline-entropy-stops": [
        "pipeline", "--criterion", "entropy", "--max-depth", "6", "--min-samples-split", "5",
        "--trees", "5", "--seed", "11",
    ],
    "evaluate-tree-depth": [
        "evaluate", "--model", "decision-tree", "--max-depth", "4", "--seed", "13",
    ],
    "backtest-model-file": [
        "backtest", "--model-file", "pipeline-forest/model.json", "--seed", "42",
    ],
    "config": ["pipeline", "--config", "config.json"],
    "transform-dirty": ["transform", "--data", "dirty.csv"],
    "transform-quoted": ["transform", "--data", "quoted.csv"],
}

GOLDEN = {
    "pipeline-forest": {
        "backtest_TK00.json": "ad34e3c7e75c0192fb5ca0903f11370a07d742eec55782254dd09b2d4fba44c8",
        "backtest_TK01.json": "d70d42ed634182f77309321951fa5ee04c828bf5be497dd256fd7d68991dad2c",
        "backtest_TK02.json": "c7080fd76227845a5beec30faeac70cd5ca860b25e81f2d39a0cd280e60615c0",
        "backtest_TK03.json": "ef15d2f3f2301f7a127c824222aa2786bf2a14849cb139b0605bf7d1dc33d2b6",
        "dataset.csv": "c9789eade27cc3aee3de3418761b904678434fb68164b97e4864b8a42f622247",
        "metrics.csv": "5480e6c5ff3e4792507c19e44a6f859e436c9d3cafb9d76238162e58b227a252",
        "metrics.json": "f8a561dc7066195fa5959bd5e15e4f1ebf01f2a8f10402ba1fe5126adbe414ef",
        "model.json": "463732d55feb60bb5b1baab22758fa52e75b2ead9855110f64f12f4299477652",
        "ranking.csv": "033cf2620dd8317e3a36545863f464881b09bf91e352fd78437ed75790b88f0d",
        "run.json": "f30a63690c437c40adf289c89d42ee273ae0040b1ce1f2051e00b4b5c2b86d1c",
        "trades_TK00.csv": "35366081060c4f8caaee159ab7368633d4e298c7802c033aa3c6c299837c4fa1",
        "trades_TK01.csv": "4b744cf1b9ad3bb0de315e4e04569f5314350428f7c08b4cda8f8cb65810f365",
        "trades_TK02.csv": "6ef7314a8a1e1f8cda0477b8d53cd6e2f6a2ec7e865db130c428bd52e6d040ae",
        "trades_TK03.csv": "bc1b20c0f4fee2e7c89a787062e312b1097ea9b8c359692e05b6f16b9feb5a3e",
        "variance.csv": "bdccd923c20c989a983c080b6e1eafadd1470ae4b7acc26475f9d78c887b6cc1",
    },
    "evaluate-knn": {
        "metrics.csv": "326d1d23f41784760cacaf607fc8a81ea05440ac30c51345ab68ba01eae998cf",
        "metrics.json": "570061d3e51edee0f4c669559ef0cc634a290b5b9b94faaccd77ad01e4740e51",
        "run.json": "2d458a00107ecd5fee0bdf995062dc26b656d7ec41077d934ccb87f6c068e3fb",
    },
    "evaluate-gaussian-nb": {
        "metrics.csv": "06d5c767e9559411460446d310d85a58910c4ef246d5af7daa96a02e891e0e50",
        "metrics.json": "84ccd341d18704da21870caa2676eaa35a139bdc26336956b593de2c6b4082ca",
        "run.json": "e1d519c6ee561360e68d90a62cf9f498880b6375d1ae7588d226fb167fb3e22b",
    },
    "evaluate-tree-entropy": {
        "metrics.csv": "ead346b9c3c645f1335e81f33c60fa387adc0cad388799923fec1107f8b4d581",
        "metrics.json": "1c64cfa533e272e0eda179959de469649f136d02737a837b243a2b5c83b815b0",
        "run.json": "9e5a8769e9ae1ad88600c675e099756351a93697e9a971f080a06f7ed7486ec0",
    },
    "evaluate-by-sector": {
        "metrics.csv": "b1305740acb7b75ab56c4a66db2656aa7c6670aaf13b8f4fd13afa0346d1bd10",
        "metrics.json": "500ab4038fe591af92ca6d65d33f9a1a0ea4affdeb3010a1300e98efc461caac",
        "run.json": "0f7828fd4260de8301e9b88d90c432de3c9432fed0c85bde60e263490709cd68",
    },
    "pipeline-features": {
        "backtest_TK00.json": "819b8dfea256ee7f5dba0885797dd8bc95dd01ee4893333c4d988491af6368bd",
        "backtest_TK01.json": "7124d3c95aff69cd0134170c05e4144c3f1c652f41d402f19680a32f2a3e0336",
        "backtest_TK02.json": "ea1b1f4519205b0945fe426de5e0fbc480e3e6d899ded6a94b40b0955dbd0575",
        "backtest_TK03.json": "70298570aaf4cd95bead3800f8044c0f893f844e0fd2bf42bdc01f78ac4e19f7",
        "dataset.csv": "c9789eade27cc3aee3de3418761b904678434fb68164b97e4864b8a42f622247",
        "metrics.csv": "090780cd209de071e73219fa560933986543bd0c833f51048adf65906d32fb81",
        "metrics.json": "93028f8579d1e79001fdccd19a4fb94ad84a870c08a6717b70e0de7c23d2734b",
        "model.json": "54d2789916ff659d7f37b88660346e7d772c1cff1ee9fbfbf1447fec9c2e9a43",
        "ranking.csv": "77ea84bc52c01caddc41cf77a401daebea4af74e267654f0cc21da119b51279d",
        "run.json": "fe33a503140fab71dc6f02f924ffad94328e085a08dbd350895cab2f9735e4ce",
        "trades_TK00.csv": "7e11f19ca338cfde1aea9101e46fc081e02bf9df658393fced6fd48e8449092a",
        "trades_TK01.csv": "08f286310e0e06f71bbc8d75a4cb9ee126824df2c049d014928f3a18e76b07d6",
        "trades_TK02.csv": "ec156a44ed210a3bbb86f0399187ea1b6a72a413301c1a0532a1387fa96355cc",
        "trades_TK03.csv": "7e617e035e0baf20321b37751469d0c99bcfcfbc44aca18925889fcc0106920a",
        "variance.csv": "6237f632657db15c15df9e00e5a0eb5892d1fb4c8a1d1ae06a14f74447baeb7c",
    },
    "evaluate-knn-by-sector": {
        "metrics.csv": "81242bb687e20c824db6ea92f2129ec100a0764c4303906ba58d70f23d27c450",
        "metrics.json": "57864c63f5f33874071b4fddfa41ce11c37fba8b1157a9a5ebba56d942e762e5",
        "run.json": "a47766ae3dc9ff8205e7fcb367a4e7830ec98c097d832852dfedf0dd58bedc4c",
    },
    "pipeline-knn-features": {
        "backtest_TK00.json": "1d279be6b90984f5802c636c558680e3ff3ddd80da3dedf09971257fcc754bdc",
        "backtest_TK01.json": "73fafc6fd8e3f4a09428fc310f59cb608e0d4ffb78dc3b6577abd40443677ec3",
        "backtest_TK02.json": "ee52ef9f77cf633faccbf2c72da61d719dbf5018e3aa906956116d2b5d9b0051",
        "backtest_TK03.json": "590a5702163acc8508e8d167201460cb37e00533c70f0441a6c972ffbf85ca45",
        "dataset.csv": "c9789eade27cc3aee3de3418761b904678434fb68164b97e4864b8a42f622247",
        "metrics.csv": "7d4c0e53f13478528a1ab78738bc537b7eff9493079dbefd4dd4895ba43752a0",
        "metrics.json": "9a2f0d265ba312309177352e06571df162eafea18fe72e9c7f48f4dadcc2bbe8",
        "model.json": "e0a00b1beed9cb740ba772045ea5c0c50cebd636e8a5eaa5a5bd1667ea9f3a7e",
        "ranking.csv": "78c0dee9b446f2a13c88cb566e9265f6413a0c9e48479e14f7231bc8e53fe8f7",
        "run.json": "6de4eb6513ce1a24c33ca64a1ab7f5de7ee0ee4167f0314c8ac9a0446f52b369",
        "trades_TK00.csv": "f6e08b85d3c5e1d63ad7b850728bceb2a779bb0348bc29b115fea1fffb847c9f",
        "trades_TK01.csv": "e8de1d402757f327db609161e2c57fa23a4d854888aeda2b790570d73690467b",
        "trades_TK02.csv": "a24996b52eeeafc595876382418435a2aeb995130cf9ceb5bf4a069d17044342",
        "trades_TK03.csv": "6a7976602d44db46dfb670d056f29b3a0e7de35c551ca5730c47492f8d83787c",
        "variance.csv": "7d5a231830437b490fb346d57d40daf85cdc0835be9dcd5a083f836114c075d1",
    },
    "pipeline-entropy-stops": {
        "backtest_TK00.json": "7f6ef793f1bf061803dcc19682f331bd6f4ad599ad5a48c65a4c138ab4783718",
        "backtest_TK01.json": "063e98107578b412ec6cf0313cee2f4b601f6b95c4c85d77e10a9a4dde37c1d2",
        "backtest_TK02.json": "5e71b894f190da392ce51ab4522aa83c4889045fcd06dcd4737f98e4bad0ff54",
        "backtest_TK03.json": "5ce4731e86ad6ebd9259fbb75816639109ef4a14763d90e6046cef84d2c3d690",
        "dataset.csv": "c9789eade27cc3aee3de3418761b904678434fb68164b97e4864b8a42f622247",
        "metrics.csv": "6060bddaa783b539529aaefe941eab60f91e08d4e12e46646fa8911fca79c9fc",
        "metrics.json": "5994fc2f2fd79364a70a2dbd833c97aa4e1876c9249f862c9dcd4f37d1d7f5dd",
        "model.json": "de2922de8a19922ede6fcaf777dbc3471a816a41115f65d52e7687a95a8be123",
        "ranking.csv": "171354235d684d11c659cacffea4091f37876304606c680546c29628d2f12ce7",
        "run.json": "e26d2af47f09bb9d2f95c82c0c79c086bf1972b23ef5aad51e6eab3f379cd7ba",
        "trades_TK00.csv": "49611de14f8bcd6e9ab7824a5916db33de4b0319094f2596eea69b2ba88a5ac6",
        "trades_TK01.csv": "3f4863714fbefc4e06e8db862b3d99993ca6ef9000f7b56cc2a76166705ddd73",
        "trades_TK02.csv": "64d1a9ab3b93683e6a7ccbaaf809be20724ec808e73e0878f4d4942061db68c5",
        "trades_TK03.csv": "1b695fbd8fd2b8763c2d4104d46a160c25dc02d16cb9ed07e00bf895d83413a1",
        "variance.csv": "464c08bece035a0eb9ba9faf587c0c3e3a1c281a0a6a34514211f5f4fadb51a7",
    },
    "evaluate-tree-depth": {
        "metrics.csv": "97c67a70b2bd13fd8a954c4c8c79e69cdf26c268996c2a586737b953dee10a3c",
        "metrics.json": "5b211ece74e6099f1015c2257c856d378ec1118f8370e4b42651e7d8d0672bf3",
        "run.json": "28e41f7768bdc4d5b6a9195a63e98b7a6653400ce43d3f76a1f5c249e1f90edd",
    },
    "backtest-model-file": {
        "backtest_TK00.json": "ad34e3c7e75c0192fb5ca0903f11370a07d742eec55782254dd09b2d4fba44c8",
        "backtest_TK01.json": "d70d42ed634182f77309321951fa5ee04c828bf5be497dd256fd7d68991dad2c",
        "backtest_TK02.json": "c7080fd76227845a5beec30faeac70cd5ca860b25e81f2d39a0cd280e60615c0",
        "backtest_TK03.json": "ef15d2f3f2301f7a127c824222aa2786bf2a14849cb139b0605bf7d1dc33d2b6",
        "model.json": "463732d55feb60bb5b1baab22758fa52e75b2ead9855110f64f12f4299477652",
        "run.json": "eeb5d70bfa2cc5b1b15869f49552bf6e1b2b16451951f14243d06b92053d223b",
        "trades_TK00.csv": "35366081060c4f8caaee159ab7368633d4e298c7802c033aa3c6c299837c4fa1",
        "trades_TK01.csv": "4b744cf1b9ad3bb0de315e4e04569f5314350428f7c08b4cda8f8cb65810f365",
        "trades_TK02.csv": "6ef7314a8a1e1f8cda0477b8d53cd6e2f6a2ec7e865db130c428bd52e6d040ae",
        "trades_TK03.csv": "bc1b20c0f4fee2e7c89a787062e312b1097ea9b8c359692e05b6f16b9feb5a3e",
    },
    "config": {
        "backtest_TK00.json": "23e600af3c1bce05e04e5c79ceb134c6cd0c13ec7457496a8050756e0b67329a",
        "backtest_TK01.json": "b0e8b13eb111fbf96a37ca1292e84ac44e6b03fde614bc05239bbcaeb4581360",
        "backtest_TK02.json": "89e1ab9589072cb480243edd3ce3f5c684df7b7bf926f31db5c43b0b9f916d67",
        "backtest_TK03.json": "3120ec26bd0d31f34a7d52d7378b26bd12c1833aad320ef70c93c4e4628b0edb",
        "dataset.csv": "37b252618d09b37663b76855842f75f18bd06d994c7f1ed84abfb10a966d8211",
        "metrics.csv": "ff6bb1383bf5c6be2fe9d86f25748f43a74685987241950179d062fdfab0ecc9",
        "metrics.json": "9bc76751318501c771a7e21838bd97346b91b47018c98331bcc9150ba4f6ed33",
        "model.json": "aa710c857ea017fe7c5c12a4f62f2995efe3b525166395dd3e10f98f066d97df",
        "ranking.csv": "8918670c55fd8d6f35cdce84f40c270fb582afb0838bc8378b360d4bab76a13a",
        "run.json": "ea9af052b9afbe9df7a991b63d3e3d4e1c38f2a5f55264675e34c9ba29289e8f",
        "trades_TK00.csv": "2c8a07cfe8d133077c370f22cb390b665908e5f247d263b312035a4d7dae2e2b",
        "trades_TK01.csv": "123adf09a507aff604573d8ef4548763625efafebdf9cf4107a31ce7a3c2f5b5",
        "trades_TK02.csv": "6cd8ffd2ff88ed7410c850ef77dfe800126ce1a398227aaa555b38fc3b44a29e",
        "trades_TK03.csv": "9e75abae578b395937f5f5b95bd0c140a278a5cf981b9fc10c0ad304aeaf8fa1",
        "variance.csv": "27aefc78bf221dd5dce63a9c63506c9bc199010561f65c792c0ec8c9e6c4a400",
    },
    "transform-dirty": {
        "dataset.csv": "34082ffeb00e2275f3ae4e72cd7849d89b83c3c4592be7f0431d7b85757416ff",
        "run.json": "d673438335bd1acbc108cd4994d4ec6efc87dfb65f5f42952652eae48424c878",
    },
    "transform-quoted": {
        "dataset.csv": "2c312135a6dfa72bb6ab7963158bc4bffd5dc49b1a5c2a4e0798daf78df4f26f",
        "run.json": "51b29ddb2a43ebe42502b74492d87005b202445de82bf69ff847ea47baafee34",
    },
}


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Run every CLI call once, from inside a scratch directory, and hash the outputs."""
    root = tmp_path_factory.mktemp("golden")
    (root / "market.csv").write_bytes(synthetic_market_bytes(n_tickers=4, n_days=60, seed=5))
    (root / "dirty.csv").write_bytes(dirty_market_bytes())
    (root / "quoted.csv").write_bytes(quoted_market_bytes())
    (root / "six.txt").write_text("\n".join(SIX_FEATURES) + "\n", encoding="utf-8")
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    previous = os.getcwd()
    os.chdir(root)  # relative paths keep run.json free of the scratch location
    try:
        results = {}
        for name, argv in RUNS.items():
            extra = [] if "--config" in argv else ["--out", name]
            if "--config" not in argv and "--data" not in argv:
                extra += ["--data", "market.csv"]
            assert cli.main(argv + extra) == 0, name
            results[name] = _digests(root / CONFIG["out"] if name == "config" else root / name)
        return results
    finally:
        os.chdir(previous)


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_artifacts(produced, name):
    assert produced[name] == GOLDEN[name], json.dumps(produced[name], indent=1)
