"""SHA-256 of every parameter after a short fixed training run.

The digests were computed with dense table gradients and the dense
optimizer step, so any change to how gradients reach the embedding
tables or how the optimizer applies them must leave every trained
parameter bit-identical. The ranker runs cover every history module
under Adam and SGD on a one-row (random hash) and a three-row
(prefix-ngram Semantic ID) lookup; the tables are larger than one
minibatch touches, so rows go idle between steps. The RQ-VAE runs cover
a config whose codewords go unused for whole epochs (dead-code resets
fire) and a deeper SGD quantizer.
"""

import hashlib
import logging

import numpy as np
import pytest

from oracles import gmm_hierarchy_embeddings, semid_table
from semidlab import ranker, rqvae
from semidlab.corpus import ImpressionEvent
from semidlab.ranker import RankerConfig, RankerModel
from semidlab.rqvae import RqVaeConfig, RqVaeModel
from semidlab.tokenization import RandomHash, SemanticIdLookup, TokenParameterization

T_LEN = 4
N_IDS = 300

# codes for IDs 0..269; IDs 270..299 take the all-zeros fallback
SEMID_TABLE = semid_table({
    i: tuple(int(c) for c in np.random.default_rng([7, i]).integers(0, 6, size=3)) for i in range(270)
})

LOOKUPS = {
    "random_hash": lambda: RandomHash(150, seed=4),
    "prefix_ngram": lambda: SemanticIdLookup(SEMID_TABLE, TokenParameterization("prefix_ngram", 6, 3), 120),
}


def _events(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        ts = 100_000 + 40 * i
        length = int(rng.integers(0, T_LEN + 2))
        hist = tuple((int(rng.integers(0, N_IDS)), ts - 500 * (j + 1) - int(rng.integers(0, 400))) for j in range(length))
        out.append(ImpressionEvent(i, ts, i % 5, int(rng.integers(0, N_IDS)), int(rng.random() < 0.3), hist))
    return out


def _train_ranker(agg, optimizer, lookup):
    cfg = RankerConfig(
        d_m=4, aggregation=agg, d_s=3, history_length=T_LEN, top_mlp=(6,), batch_size=8,
        optimizer=optimizer, learning_rate=0.05 if optimizer == "sgd" else 0.01, seed=11,
    )
    model = RankerModel.initialize(cfg, LOOKUPS[lookup](), LOOKUPS[lookup]())
    events = _events(44, seed=12)
    # two passes: each builds its own optimizer, the second over trained tables
    ranker.train_one_epoch(model, events[:20])
    ranker.train_one_epoch(model, events[20:])
    return model.params


RQVAE_CONFIGS = {
    "rqvae_resets": (
        (300, 6, (2, 2, 2), 17),
        RqVaeConfig(levels=2, codebook_size=32, input_dim=6, latent_dim=3, epochs=3, batch_size=64, seed=17),
    ),
    "rqvae_deep_sgd": (
        (400, 8, (4, 4, 4), 18),
        RqVaeConfig(levels=3, codebook_size=8, input_dim=8, latent_dim=4, hidden_sizes=(12, 6),
                    epochs=2, batch_size=96, optimizer="sgd", learning_rate=0.05, seed=18),
    ),
}


def _train_rqvae(name):
    (n, dim, branching, seed), cfg = RQVAE_CONFIGS[name]
    emb, _, _ = gmm_hierarchy_embeddings(n, dim, branching, (1.0, 0.5, 0.25, 0.1), seed=seed)
    model = RqVaeModel.initialize(cfg)
    rqvae.train(model, emb)
    return model.params


RUNS = {
    **{
        f"ranker_{agg}_{opt}_{lk}": (lambda agg=agg, opt=opt, lk=lk: _train_ranker(agg, opt, lk))
        for agg in ("bypass", "transformer", "pma")
        for opt in ("adam", "sgd")
        for lk in LOOKUPS
    },
    **{name: (lambda name=name: _train_rqvae(name)) for name in RQVAE_CONFIGS},
}

DIGESTS = {
    "ranker_bypass_adam_prefix_ngram": {
        "target_table": "c23e839d2568989ea742b39f186d16ba4f09f0b12e0a00a654bd1c5aab7d171d",
        "history_table": "7e32856fa432884a1f03f38403302125eea79a60e411b01296cb264e71aa29c5",
        "ts_table": "6a0d2ce0b977e812c90e65ba71d319118708748a7ab2315342dface3e0476f4b",
        "pad_embed": "d065aecc1edb68e1d397730f86085439b1bbe843ea923c4db12ba16604d9d875",
        "agg.w": "b7491453175e0db33c5bf75708ab0e7392dfe9da59f820195ce8160871a88590",
        "top.0.w": "c0f97b00ecaecb6f850560580253ef4c067066b1070202ac0b64940921daa5dd",
        "top.0.b": "984da01aef7c6fcb5cdde2c597fc3f191502819889d3a85e89440ba94f5b31a7",
        "top.1.w": "f7572bdfe035a6b7542153f6bf7dfd88b091e118fe9b3c7ef972d890623fa879",
        "top.1.b": "d2a5e073069230dd35a40d7bc6c0fc9609ad15a84524950056d0aa6c06cef67e",
    },
    "ranker_bypass_adam_random_hash": {
        "target_table": "c7a2042698fc7ab8e5c565f82ac92295b35cbeabb17aaad71b33c6cf135323d2",
        "history_table": "90dee85d808d698ada16cbecae6833f3a36d8e60032aa552ef0240987109e8ed",
        "ts_table": "f1d921a788c780e97b64b47b5347d999fcb2d9a73dcf54b3bb1416acd497d4db",
        "pad_embed": "6be6af3b3d1694e9f0a3234bc7c9f399c482da379143b8acd093bdb270b425bd",
        "agg.w": "207e8e43957783e2db9d81c35f3e4a09c01a812c12de91d36c59288bb254db95",
        "top.0.w": "ea240df6aab4c08c7b6d995f35bb774fa8c88bca67ac73767533b94b255a9399",
        "top.0.b": "ef17844c61b097c553a8d830edc1748cc543a6ddc640dfd93da497338f9115a1",
        "top.1.w": "cb26f35e4b18e7b7553ba9c3f800138c38306f58332249b5a3579ccabfd5000a",
        "top.1.b": "57ef9d54af550a6b438198254e01cb22f90ea9e2f996bc498d92858aac3ebdad",
    },
    "ranker_bypass_sgd_prefix_ngram": {
        "target_table": "d752066470c5f74911d649c92518600aaacebed3d901a907dc04ebe04c52bc5d",
        "history_table": "3909691e2bc05e509f36affbf447f67bb55c19ac421ac1851c109e20078f83c1",
        "ts_table": "d528172724acbf3f285929078ecafc45d3ef4243e5cdf02fde56e4b59083a313",
        "pad_embed": "85e829bf3777d20e630171c4e985e3d979744bb5800af5fd3a556632a291d881",
        "agg.w": "8b4d5aa9d66430c117568508b1054489e2caa6ead3fd465ee006d28a1b96f46a",
        "top.0.w": "2951b76c146418c8861e78ad26fd55cb4ad5a478ae7941924f3023b1682c79b6",
        "top.0.b": "b6dbf0961e8e8ccdc3a1def70b9f7359f572cf88a7bd5991e95785fd9c49800f",
        "top.1.w": "7e95aeaabe602fe129f3c0184ba802e482d5f16965b48d70f7621c4e19afb4c2",
        "top.1.b": "5792dc934d564c8fbfc8fbc42f7aeb516f5adcf1fab1ca3a637a012e135d7533",
    },
    "ranker_bypass_sgd_random_hash": {
        "target_table": "db36dfea77f869637ca8a3239e6f8bb17bd155e3e4d500458034f0cf92ca9851",
        "history_table": "806248028f00ce6c1ef91976f1f3a503d87491795608fbdc7ec17597f1e421a9",
        "ts_table": "3d5e468548ec973618e7fe0705e5862a675b914039685b39dcaa5e89656acec5",
        "pad_embed": "a94bc6ca99020c3ba8b3e4db3c4517ea07116f1a19f01e48b4a5a612dbaf5b26",
        "agg.w": "1b2843a35166d9fa0f00195ae3e82f031e9d5037e93fbad49d3a3214e2bc4236",
        "top.0.w": "2ce69497aa471d48154eb70fcbbe12fdab611d3e24fd85bcce6dad369f605db2",
        "top.0.b": "bc74126bcaf6c020700a2b677bcec7d77787e2e9fe6a9c77a337d08dd58e52e5",
        "top.1.w": "0c7e027836450b140f416ac22efd98141efb8bdf61593efe2466991db0df3f1d",
        "top.1.b": "5dbdabe481f8f9f3b350d4e1b19641ac47dd022c2f28a410abb55035f08bf57c",
    },
    "ranker_pma_adam_prefix_ngram": {
        "target_table": "64ccd71e5c5cecba7243693e9f13cb8b3ed27c427f254a66c5ff28f0d1af4cf2",
        "history_table": "f6e3bb101c4773b12029b75b41644a04de641b613fe923de9fd06015c613d3a3",
        "ts_table": "9683648ee1f1e8bf0a226d3a7162ad662229e8f59de16b35aa7ecda048b36993",
        "pad_embed": "c43b5c3c20060a6951e00f06eedbc419e6cf7231a505e515fe74c38516ca018d",
        "pos_embed": "04a92a1533c7c7c3c2733935f35168bd4c56f697cbd24c05bc1b3a339d46239a",
        "agg.wk": "15def15cfa3c249cb4d75fad896a98f9b5f36446dc1bdf5f879b2a66c1ec53bd",
        "agg.wv": "6e5c255ae391ecf42ff36eeee4d4ebbc39717fcfdefe68ee30f50622d0237f96",
        "agg.ln1.g": "582cd3f09040965c8da9673b8d9d5840afcbc770e4e7f4b2658c69cf75a54b43",
        "agg.ln1.b": "6fb9405ebfcbddfa9ba0a1954c3601837329b3610cb6bc9ec2425adbf0d9555c",
        "agg.ln2.g": "669784dbfb761ebfbe9ca2936a92629d415f495b9f4448c5445a8fd222fb809c",
        "agg.ln2.b": "f2dc86768a6d6aa0fcfcdd04218216f445355df9bb2b7172992cbd5be761dd39",
        "agg.mlp.0.w": "90fdd20c80ad67174b25d9230e982c64feee041a547015028677892b9fdad1ff",
        "agg.mlp.0.b": "0f9ca117e6b4f144dca3f42324018d5df3eb461471e55b3486668a579ac89996",
        "agg.mlp.1.w": "8605781f3e3850ac12bb5758de0091956114da3ee3491ea5ad78a62bfa8f4798",
        "agg.mlp.1.b": "7f7079a4a1bc224cac44059b8467ed36fb2fec039b9d7b4c61879a4ac59d9fc5",
        "agg.seeds": "21f49e57df627d20162d89f30f4c5961ae1722f520452753cc884ea764c59243",
        "top.0.w": "dcf3b43010b479c7d0c41e68cf4e2ef11e1c70a2f8ca2b5d0d44279703002b2c",
        "top.0.b": "54ebe43ee6ce0daa83c4e32cae18bf08585273dc034382382072160c5890836f",
        "top.1.w": "47f7fbc33de68d2cae26b968bc1fede5af10809c4244143c01c891cdc3c41ffa",
        "top.1.b": "3b764ecaef946c8523181a98f29c42b503a2a4d3fc3d179ef35bba1a10185356",
    },
    "ranker_pma_adam_random_hash": {
        "target_table": "d20994d32d53f1ec2147a053b25c9237081314265f24acf4ed5558f26f9326b9",
        "history_table": "b8aa1b1f3b842f407349012a0ba879850c16c2fdd9c40ce0590980dac5edd3e9",
        "ts_table": "e57687e1def3764d43d3e7bd79f0c8c89cbedb1db5bbee1f2b214c6d36e612b6",
        "pad_embed": "83cfa17ea47bb706ef31a4802ce895a3f45e8f1a794eb1ba53614a586e305853",
        "pos_embed": "f72b81c14b89731c5c9d8c43aa6430fa32ed82d6c8518def0db37d3b725c6fdc",
        "agg.wk": "313d72ecf3146d998f5cb51dfef42dc1b22b80eeb4fe7fdcac64de3a5efdeaa7",
        "agg.wv": "43d8cd75bfdf9d27c7e2ff98ae93bd12968baf3691613aaebd8b7acd8c6f33b6",
        "agg.ln1.g": "a3f8fb559b981c0d5da2dcb2fa4bd4b346dcbe42fb65c579090a1cfaaa3eec7d",
        "agg.ln1.b": "1863a9e688266a76964e21cde608b852b7993c981ff5e381ed725143a2806cb2",
        "agg.ln2.g": "0c518016df6b44e505d81073359b5e3568db67a8e1338c7341d2745ae65e1e2f",
        "agg.ln2.b": "7bbabdc4ac691358118327f11ef2002fdcfe04cba3bd455d40ff31611a403a64",
        "agg.mlp.0.w": "4835a12a1c17a6eefb576a77bf9d8db7a07a1cea1fbb1c1840a0f632af7646b8",
        "agg.mlp.0.b": "68bb5eafe686786ee41782d631aca0a2f5c4995acbdaa2f9290164fe2632b433",
        "agg.mlp.1.w": "bcdf75bfc83ea183a5148aa4dde22c766216a3267dbd37c75028acdc23c49e02",
        "agg.mlp.1.b": "9c3d045120005a2bfc4ccbf6c5bbca9ee205e7edf76c50bedf1c62e292711541",
        "agg.seeds": "97cd884739b51c135f38232d9d50a887ca705f88a8aa3dfbdff98325216b7ea5",
        "top.0.w": "f690ce3d6da0c2ab3016a7b20e50c710ddd5835109f8b56289456e267bd346c2",
        "top.0.b": "910058a6f49c9faaff326ae06dff236e6b428d2248f712e8b60e65a9dce23782",
        "top.1.w": "ca0fe36ec31775bc574e67077ce773838a90b853cccce9c06651a3cf37954bbb",
        "top.1.b": "ef1c7a69a53ce051ca3538d447002b59c72ace7be85388734a3ae2294e986734",
    },
    "ranker_pma_sgd_prefix_ngram": {
        "target_table": "207c8817ca7dbebd1e61c873429fe3f2419cd5d2a907e1d07b0e9ab38f93bb55",
        "history_table": "c0c50e3d9e6baf3caa3f2cdeef41893d3e871bb1473df15ff9da200165eac821",
        "ts_table": "5073c35f729972355df0c865b0be3043f1894dd18498c221b78db1ae2dc96f47",
        "pad_embed": "11f1de946fbf7bcaddee9cae6018989d9eef7c791f5fdbc1670d3b2e1e3c9861",
        "pos_embed": "2d328d7cd6f833771ebaebba4d98a9f761867b3052f5ab8ffcf3eb4ead556999",
        "agg.wk": "79a5b744a1800eae11a58b753711f073de5d11921910944e82b38ebcfa2efc29",
        "agg.wv": "d3c00461b8489c44cb0aba3cc682eaf8f8a2cdebdff805a78e711d0fbb141b11",
        "agg.ln1.g": "ad7d90a4a71ad2e026c899ed98a2aa323d872e43961000ab839964f7f1e61909",
        "agg.ln1.b": "a09cd150667b417d554bcc4a91d5670af5381fe4885c689377a487af2c689538",
        "agg.ln2.g": "cd863628c2145b0740d7420867ee37d3d6dbeec6ec0619bc876680c433ed5463",
        "agg.ln2.b": "e684d492ec351900d57e3d12d7d24a6782221e0c7d4bd271e3b63f0cbce31674",
        "agg.mlp.0.w": "78ca35ba7793fe4ba087ab8fc11d1de13db6a0eae0e3aeba81456cbf502c58b3",
        "agg.mlp.0.b": "153d3201c131518698d7816fec7c877ca934b8dfbcd716f080389e4b3ccdccc2",
        "agg.mlp.1.w": "9239af0959f2bfe9dc9824ecfb71231fa2d3c5e5bd17247b5767bfc9dc4ced7c",
        "agg.mlp.1.b": "e19179476cb62a84168611ddb1932f50c4902612b9e013be1ab49f2fe2e4bf96",
        "agg.seeds": "22ce073a68920dded43452069cd4fee9274ac952413ac7bc1cc612ed0d5d2473",
        "top.0.w": "d84c77ad38f5166461838788c1087c3c8014dd265f68da144992b7e702622dea",
        "top.0.b": "474d0219787a674a21ed0a1e752f3cc451ceb901ac27f1cc7da2bc7cd42d0c5b",
        "top.1.w": "4eb499269cc8d486c174f19d2eff0b31051543f38aab1897a60f31903ab7eef8",
        "top.1.b": "a0b3e7687351c13b5087c780568250828559d5fe710c41d895d6453149285cb6",
    },
    "ranker_pma_sgd_random_hash": {
        "target_table": "6ffdac559db2dd858260a6b054ccba2da45f79bb922353c26536332ed87c3469",
        "history_table": "1aaa689cb83b509ffd211411f39e8439659b33b958d3080560d5a00b772ea686",
        "ts_table": "ef0d1ccc202a66498b837d9ef4ee5ebf5e28ca5009616548913b33192fc65b6f",
        "pad_embed": "70f52494bcfb917adb2ee2b79fa9751ce30e9448616048d283edf21e62f969af",
        "pos_embed": "44fedf44646ac4c550261a3a543204763e7bc5b3f16d2575407127f4522b20d2",
        "agg.wk": "cc0383b5c0db8550cad2b62ed8dc73d3d47e77bc6c55ce5efd1141b7288b0d57",
        "agg.wv": "2cc9b7b229179d9ccd9b8dd665753fc344adbff97bc76f737eec66d72b7d6b37",
        "agg.ln1.g": "bf6a656df28a64e4a33b46f9a9958afa09f62516b66bb841bd22b1dbf8a5e7c0",
        "agg.ln1.b": "4795c4db8bdf00a5fa2ef880961c5eb8859db6c9c32d5e5e0a938d62e285cf28",
        "agg.ln2.g": "e24401bc3add5a47dc1912300c507f146f10122b575ac9526660087c42465054",
        "agg.ln2.b": "af0950c0517c7a7a2475293e70b260174f410ae59b6b4db3b2d3d08d147fd98d",
        "agg.mlp.0.w": "00b789dea82df480192f0701ae5c5cfd11d08bbe43095415bdf7cac4e0ad8fc3",
        "agg.mlp.0.b": "8210a4aa901a414aa791ba50b7bc46d288e06cb6316a89012448c3ed19ddebbd",
        "agg.mlp.1.w": "4182682d0f7c0adba2dfeb2af1668a2b56e7bb8aef55021a5c7b617c3479483d",
        "agg.mlp.1.b": "bbbd5dc9c455b653e064e0780d513e508e1ac1ff0d5e5e902c0066999d1f5dd4",
        "agg.seeds": "62a425b41f196c67a3a19ebc6b02d1685e7811418eef06a3c1d3ade1e73c7a9f",
        "top.0.w": "116a04c43bbabb452597323b8124ca2ee172c11a14cb7a38c0c0880e898e57f4",
        "top.0.b": "d53d58bca7673e113c505859e0a3127cba4a3b7aef3a65e5c23c537a853ca1ea",
        "top.1.w": "bd10b1f69138f6e76fdb1e80e46615a152730d09f6380776dc854d1101bff027",
        "top.1.b": "68c7f7cfc145ada6ab05a7c0e519bb600d9b61726e251db21ccc26505249cae3",
    },
    "ranker_transformer_adam_prefix_ngram": {
        "target_table": "72c4bb17ab5d11f5258a0c1b34799a5fce44627b84cd7077079d06eb23d59eea",
        "history_table": "1d305de4d093c0e5985e243e59f4a2e5a8d7ea2cd321d68ada20a59caa111d46",
        "ts_table": "d73234134c9b42d6ba665eeb67559a769b82f9f853a78e45b3806ce0299eb309",
        "pad_embed": "68c67f1c282b58d1ebcb2ecbd00f5a24dd5f3ae0c942ae0d82b3c504233ab33f",
        "pos_embed": "23f21b32d0a3e09256802a4daf8d5da3be5b220cdcc85b2f876d2dc4d6364396",
        "agg.wq": "5a6e605237d72925b52144d5fefcd4502d4bc193da9b747ee2d30809d11d25ab",
        "agg.wk": "ea8d6c2747272ef22359eb59168d1ef978563df3b17b3d94bb172292c0ff1687",
        "agg.wv": "be166cd2ce7b212f65a21b79258b277e48c47569ddb9efa0110afde6e0384ce6",
        "agg.ln1.g": "d782cbfaf90ffa425ee9519ab4984eeb661269c8da6e568ea67323f77d32b1b1",
        "agg.ln1.b": "d20a92afe96b4a76fc4f054004c172bd74204dc9c10a342bf7bc1c2cd5ba4d53",
        "agg.ln2.g": "070458e87b76ca078c2f000451e25be404d735cb5b0375697903e91e06b64b8b",
        "agg.ln2.b": "49b3b81f608c98b76fbceb6526e7722d4094fdebd60d5090bdde939cf07d2947",
        "agg.mlp.0.w": "6d62c66de34425d6fe4019931273dd78ef115d32fcd207e2de16dc67db8ab2f3",
        "agg.mlp.0.b": "5fbf1c462845b012ac02e640db2ad038aa96b4670bd69cd181c344cb759e56c9",
        "agg.mlp.1.w": "23285ff88824cc99972ad877b0cec689e652fcd6d937754b50c0baf7f41bee50",
        "agg.mlp.1.b": "0c550a15a2058a583bdd85ffd5cf665e1de15907e2537ac086948ee43bd540dc",
        "top.0.w": "80fc1cf10eff2d0549d3269e1958c6630929c034703de2e108c09603bc18c64d",
        "top.0.b": "c464ecac77cc84a9e0a43a826958071ece0d5c39864524b89472dc7a018db5f9",
        "top.1.w": "c93dea3226a9ce5c8223030dcc4792f1cd93ba5191a5c8eabe51db179f25feb2",
        "top.1.b": "98d834da766f10aba53765fc585bb07382d59a77e6e187f57a7b218bf4b8fa9c",
    },
    "ranker_transformer_adam_random_hash": {
        "target_table": "c791ab075f3bd5e57b02cbeddcb50c3945596d81b5a7d4fcc9e2bc1c14e3f146",
        "history_table": "b9153e7de1297618af07c90c12bc6407a5f8f8ae3a8e3a509c92a43b7d99c29c",
        "ts_table": "3a2e46737ab61c9e0e9bdab860bb0caa2171af6b9967b08134fa7fbcbee5cd81",
        "pad_embed": "50cedae914c2f10a6c3f1b681788ccdd5d257737f81d25c29cff8becfed87b1b",
        "pos_embed": "c46d2830d59358458d94fe2533b0b0f0721d7111ec2337420ff3b983f003f38c",
        "agg.wq": "f2043dfd3bea20d5d55fcaef0b0a4e956f8c875e5fc6a89989b4dc340d26d259",
        "agg.wk": "f1da053b41c39704e820fa4cbaf8a233f8a30fb5264b09117fda644d5fd0adb8",
        "agg.wv": "a632d8f6fd12aa79900b4de80b3affb872d09ccc5756c9e8c33553e73dba3273",
        "agg.ln1.g": "0424769bc9d488f376f41a6449d962adb846d59917484d34cdc75f27ad8af5ed",
        "agg.ln1.b": "c12b2339a4c3837659eb906759be91ded4ac29c22fd8b2f3b1fa42575219e252",
        "agg.ln2.g": "fb307d6a1a1484e57b8fdca164876549640b450ba389c5f0b7c7b8983ca39c3b",
        "agg.ln2.b": "b18aafd7039c79199b33f44540b5ca2ca0f18366d6b49e8275f4d2f3f5a21862",
        "agg.mlp.0.w": "f80bde6a75358dab69ee5671911009ba41e6f533dcb133f5ad7914320372b240",
        "agg.mlp.0.b": "c8a18f63f3e6f6c27709f2882d4afb915c3990a0ad5bc951f7be14cb40d0f2c3",
        "agg.mlp.1.w": "c32c35c28a76bb0ec483572ee8b04e3050f4fde9282f0f4d43cc418901ceef8d",
        "agg.mlp.1.b": "124c611bb952481045eadaba7a2d599f62cf0ca07c38d35569de9befa1b2d353",
        "top.0.w": "e53a15e968b0252f2b2b8f2b632c3f2128e14818779d358569a6678048d2d77e",
        "top.0.b": "adf609a98245c725c7385ed914370483728b444628bad25df2d9ecbefc7669cc",
        "top.1.w": "21e965b0b5f8971c63641f48591f22626757b2704d723b96dd956984fe93407a",
        "top.1.b": "026294d560cd16f73f39f3fe373a14d50aabcc778e7f0e119a00501fb34139ba",
    },
    "ranker_transformer_sgd_prefix_ngram": {
        "target_table": "dd4767f1f7a2dbbcc47c29e91460761b14aef7961dfb1f28924ffad789c49c7f",
        "history_table": "ef4b15d80f57e5ae77509f62ad9b94a79f144e80d7a04aeca0f59255cbb92689",
        "ts_table": "ba3a88eea65f711ed69ea285335ed8aafe9a2e7cac1019edae7e0038df702e30",
        "pad_embed": "a2ba2ec51e2bbcd708de0816257931903f71565b12fe8cece1558d50aef214a9",
        "pos_embed": "cb48382d39f668ca7a2038820dc73415ce472e884ee2a8f32da00ea3555c5f17",
        "agg.wq": "2ee0e511e224cf10adcab9d25a94aa1148f501c947b15fb39d3a6b6307d1e0df",
        "agg.wk": "4e44327cde4a745f32835a18596392fb01c5ef1554d5eb2f5b566535dfbda946",
        "agg.wv": "e78fef7cde57bda2a5fbb5f171fc64b3f9379a7f91d9b309ba0b3c150390e45b",
        "agg.ln1.g": "d0f99cbd46b90ede5e048494e82ba1226e9a3593a894fc85a63ba98b0ae6f45c",
        "agg.ln1.b": "142bf4eb9a332472f78efac1cd16c68ee2eae2c0a45b9d609dba3794d85e80ce",
        "agg.ln2.g": "d2a0d57e1f03d345219c62c42b45ca60617a16740d77ee506684c4515b44104b",
        "agg.ln2.b": "4c030c7bde9f373e56c5ddcf819ee2f02f5e58ae91ab5804232ee6a670b98d12",
        "agg.mlp.0.w": "4aaf3b30861e47b280a994e3c1b2df5fb2e3897ba8aafec51588b5ba7443674a",
        "agg.mlp.0.b": "09d5339edb180caf04a3bb055ae8662bc05a4d6e3c3c9ad83dd9a60a660947a7",
        "agg.mlp.1.w": "138fd94068b6fc04ae1ee35f5cb261a59835c27f2c8153f048ba52d3249a8034",
        "agg.mlp.1.b": "65de54eff7617b5b4ac04ed3e8e9ed48ee75825432031e1d994e3eb4a04944fe",
        "top.0.w": "f27d9462e14e669b2820f787758dc0dff02bbce45621ab3fb146dbc20bc65abe",
        "top.0.b": "22586924fb1567a3445a114773a029ddc2f7075b918ff1bf856396623f3b63aa",
        "top.1.w": "1a2d4167949cccbe3a2a8829789bc0d6ab843b4f43169fa81a1a330ee965e585",
        "top.1.b": "d86c3c4f72a80fdfaabf3eabb29c5a55046860d4f449c0dbc53c2c0dc6a18c1c",
    },
    "ranker_transformer_sgd_random_hash": {
        "target_table": "45afd77eb894305437fccbf03238996b79665f08e1162af2e24cde9a8006e3d3",
        "history_table": "a5c8422111807bce84479e2bc56cd7c6ebd85dd8ca0e8e21f2d2127028ab2f14",
        "ts_table": "447757c78282cc8cfc33b60865182e1c2e845c3b9febff3afad0eff50b056ba5",
        "pad_embed": "11eff69b910c360d3e162a3a70e64b33060ae5e53a3233f93b2f7681f3c89f98",
        "pos_embed": "379cd5942f8c37ff914b1815d4b5cd602d39455810b224ca73b15ac771cfb260",
        "agg.wq": "67e2ac48b0cb6051b3a16074b2b5ec4f40bc0ef276afc1767f34d6ecba3bac0d",
        "agg.wk": "adbc612fc0510a899fbec1a0169a474bcb3f1391d7122bd68cf06547ffdeb98b",
        "agg.wv": "382c6f65ce7825cc1854b220f93efcfae52d8c9ad5ef444cf05cef4f3a639016",
        "agg.ln1.g": "e1ebe81db3c20ab19a2e871c69def5fe855f380f988c6fa3aac0e1decae1d84a",
        "agg.ln1.b": "29f42fd5ddfc03b0b44fd25f112c608700ee5ee9fd71cd09269925a8bc05456c",
        "agg.ln2.g": "cfb9b35cff0fa279375df5ad465e680cad7da1cf1c2c9c230534b75866d62179",
        "agg.ln2.b": "435c7e97ac77b56e6763ea7b14fd733431208d15d0098adf22bde3133ae0a7ae",
        "agg.mlp.0.w": "6964fa1f73904487eab5f1d9595b66a14000a1a176b477d777c5af950aacbd43",
        "agg.mlp.0.b": "07292228577c3b223a72ab9671e75b99a994765629fc5d37a59644be1fd2dd18",
        "agg.mlp.1.w": "1c590f93bff4141ffd0d605c23f08b7e42c40c337d7d307cb77b275532ad9944",
        "agg.mlp.1.b": "0482f3d01e122182d9b7de5ca2cc473a8be9d591c055821a332a2905900f16fe",
        "top.0.w": "9d64c517dfc4903adcb87813d18648b39998956e4d4191288fb536c519346340",
        "top.0.b": "525fa9f53ea4ccf81c048159a1c5427c07d9b6b45188e318d066db9393319fe6",
        "top.1.w": "9bf9bdc2d1bbd4720d15a114501d80686b1049d374be223925814d2c8941b444",
        "top.1.b": "e493033b025dad8a3981c8ba112499bca416449fd0d8a84e917d7f2e227e4932",
    },
    "rqvae_deep_sgd": {
        "enc.0.w": "1fb82bc0c3a424813118c2294afe1592df6162fb38cd3398980c77b40997c67a",
        "enc.0.b": "b68f3720a2615ed6592d47947855cc93228f6afcd2bc3a7f32a0a309f652b331",
        "enc.1.w": "df5a0a3c2664010db5a812169041f08f6e9693a0f005e4bf62d4ef663fde0e67",
        "enc.1.b": "c59cadaeeb7a07af39fe5d1ec41e578dfe1e9280a7611f0661d079c74fef7004",
        "enc.2.w": "74ee5c203a46a06e526a586c99f6a9b56010aab50c160b0cdd089f71f8ee45d0",
        "enc.2.b": "f55ee151f046997a31c56d9bb8086351e2c4ea76afeb0bca98f64237c910c0f6",
        "dec.0.w": "5113053ee31eb282db4b3f4de4d462f36e6340e34e8849afa54aa1b3f25bfafb",
        "dec.0.b": "1fbc5bae430d43306c0b7302313fa5036e4ffeb30580e9e0ec6574d63cf4ae1c",
        "dec.1.w": "7e58c8f7017683be5df595291ef49ba2d926a42d6705f22bf7088b489ce74d79",
        "dec.1.b": "f298266ddaa24ea35978bdcd08a04f880d934f07f9c53a1f81004b895593a295",
        "dec.2.w": "fed66ee75430a4df49e05b4896e85be3cb7874cd4a6f74a0c17f9bb5c04d0d5c",
        "dec.2.b": "62c58f98656f560ed9a8b8f8350e41b82c0aa284d005ddeb4b4cf240d08e146f",
        "codebook.0": "ee41224264d9e385f20197cd5ff5ecad352bad30f229be8f81b036552480dfec",
        "codebook.1": "6ca3ad6e915a7244441703e7bd972c4ea21f71bf02fe3871316a1715f9df9427",
        "codebook.2": "f494afa9a7ab4b4c7754418ba1824f788424aa0ac1f8c2b6113f02fb35114c17",
    },
    "rqvae_resets": {
        "enc.0.w": "c940a56979d45546eebb150f4b72c5e40bf57a4a077cfefbf5548d1dad741b2c",
        "enc.0.b": "97d5124137c54b146fef55e3e89d81b357d15db99d11f8b2c0b5f76559e24677",
        "enc.1.w": "232892924b82b07fbdc18da75df79e92f3199e4eb2cb02ade94aa0e5919a5e54",
        "enc.1.b": "4bf3cca13efefa82176ae0b7ed45d8d766f4c0fa8a4c1c19082e6fd1808e80e5",
        "dec.0.w": "05afc6bf0372ff528165193d39a9144250d3b9ff9bd4f089b77d36c091cef39e",
        "dec.0.b": "6c0d5dcbee51cfb6963ec88e82ede6212ca2abc431875b2956e1155d5f9d6c0a",
        "dec.1.w": "1a3737e4d20db38d90e1c060067f360f10ede56d897200aa48daba73fbd96373",
        "dec.1.b": "fc20a24cbb0ccb247354c7f2abfbe79ffef3b058d31dbd9b9848399af9e6353a",
        "codebook.0": "80c5fdf288f31b82014a3829d03f20c13752a9b605ed0aecf66120d70585c6c7",
        "codebook.1": "b53b2e58dda8c2db5d8c03f6aa802b2beb96ed57d685c0f0600921108502f9af",
    },
}


@pytest.fixture(autouse=True)
def _quiet_fallback_warnings():
    logging.disable(logging.WARNING)
    yield
    logging.disable(logging.NOTSET)


def digests(params):
    return [(name, hashlib.sha256(t.value.tobytes()).hexdigest()) for name, t in params.items()]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trained_parameters_match_pinned_digests(name):
    assert digests(RUNS[name]()) == list(DIGESTS[name].items())
