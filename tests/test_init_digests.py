"""SHA-256 of every initial parameter, in creation order.

``RqVaeModel.initialize`` and ``RankerModel.initialize`` draw their
weights from one seeded generator each, so a change in draw order moves
every later parameter. The oracle tests build their models through the
same ``initialize`` and cannot see such a change; these digests can.
"""

import hashlib

import pytest

from semidlab.ranker import RankerConfig, RankerModel
from semidlab.rqvae import RqVaeConfig, RqVaeModel
from semidlab.tokenization import RandomHash

MODELS = {
    "rqvae_default": lambda: RqVaeModel.initialize(RqVaeConfig()),
    "rqvae_no_hidden": lambda: RqVaeModel.initialize(RqVaeConfig(hidden_sizes=())),
    "rqvae_two_hidden": lambda: RqVaeModel.initialize(RqVaeConfig(hidden_sizes=(12, 6), seed=3)),
    **{
        f"ranker_{agg}": (lambda agg=agg: RankerModel.initialize(
            RankerConfig(aggregation=agg, seed=5), RandomHash(50, seed=1), RandomHash(40, seed=2)
        ))
        for agg in ("bypass", "transformer", "pma")
    },
}

DIGESTS = {
    "rqvae_default": {
        "enc.0.w": "0bb169673cd191da78e19038de044bf54c7af62028fa1714eb406d1d49654316",
        "enc.0.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "enc.1.w": "739b9f9e320fcbb500e10cc21bd9f9cbd3fe0c09134cec6d9fc61a840579d553",
        "enc.1.b": "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
        "dec.0.w": "1e2bfb2546a4ffa762c3a8da543b1474e3cb47053b7729c60ca532137b20ed81",
        "dec.0.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "dec.1.w": "9716225daa196c5fe16ebdf8dbfec0b55c8bd0498ef1c211a54286d0d8b00282",
        "dec.1.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "codebook.0": "51fb4bafa83f8d6523459a6f89a96d6a760b9c3651eaf32f17bad54686c91e9c",
        "codebook.1": "4ae20fa4c328d3f8bd7159e84862e3a4fe7832fb8a1d8823e887ce6b3ee62ef7",
        "codebook.2": "0e2503c47993565e9e02c39846dbf6de48b689feb522e3a141abd4cc80c77fca",
    },
    "rqvae_no_hidden": {
        "enc.0.w": "73b2c89418c5d9816b40b18d5f9ccb3d1d0b4f33e90b4ca28516734eb66a0974",
        "enc.0.b": "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
        "dec.0.w": "6a5f5deca230dafab3867d8d421739aeebfcf1f7caf4cac15c5b95b564584229",
        "dec.0.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "codebook.0": "30d51cbffd4a362a97c39697c47eaf36dc416b43b19e4d2f9f1660e3e4697482",
        "codebook.1": "51fb4bafa83f8d6523459a6f89a96d6a760b9c3651eaf32f17bad54686c91e9c",
        "codebook.2": "4ae20fa4c328d3f8bd7159e84862e3a4fe7832fb8a1d8823e887ce6b3ee62ef7",
    },
    "rqvae_two_hidden": {
        "enc.0.w": "951f91e7053a32c5eb8be56f1e169b88100172c00e9e98d63a1b37dd90b77a98",
        "enc.0.b": "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
        "enc.1.w": "cee6046402cfb943ee3daa28107ac7d6e965722d7e7af925c910a94f1e70fa48",
        "enc.1.b": "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
        "enc.2.w": "2fc223f0852a963c03b71c9230eda96f3342bf1aa014b3be3df4572226e15e62",
        "enc.2.b": "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
        "dec.0.w": "90c4a9ec120673bbb04fc1a65d15403e6bf90bc65c75321a35aed137a85c2529",
        "dec.0.b": "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
        "dec.1.w": "b92f944d73b22811e78632902973611c8df6183b702b8ccbd07d57fa13b3c4dc",
        "dec.1.b": "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
        "dec.2.w": "cfb4f3cde4fb560ec77e26f6e60cb7922bad9d29c6ea9fd85277ceab6c85c41e",
        "dec.2.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "codebook.0": "88e0dd80d4db385ea63cb85f9191d04c3488fada8f831c6f179343bae72c4923",
        "codebook.1": "14314c909fe8955f490c35ccc71b87241b263023058487a1eacd3bc6e4122622",
        "codebook.2": "4bda81cb7f246aa82566158fd339958121e014895f7a06f3fefcd83be0b65622",
    },
    "ranker_bypass": {
        "target_table": "7f4cf084e9308d139b2d55564e0126743a16c5fa788c8c9556fc1b7f0e52944a",
        "history_table": "2234d0cc9c2c3c9a94323d0add06f1415d9314da3417d7c3917278f985caadfd",
        "ts_table": "920e62b43d75e89f35ea56fbb9cbe7907a0f088effb60023a380b4c1eed7e842",
        "pad_embed": "da2b32fb0c331b2a98fc065638f673d9f7a60c114bee9e23a689068d52c387bb",
        "agg.w": "fb130c4cc6b72b4a81e72070bd4dc1c581e087d8fbe0b943928a9fdc989f0f5a",
        "top.0.w": "cf55d90b410a15f9d215caa87c5082e10876e4637d6da2ac4ccb1d955f900c4a",
        "top.0.b": "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
        "top.1.w": "5c89c400a6c60147f628fde3033ec4ceb7faed7fd46adb6a0ecbbfcc59d9ee91",
        "top.1.b": "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1",
        "top.2.w": "46eff6618a5b37b14dd4344b50849dc50e7936b5043b727159637d547b504138",
        "top.2.b": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    },
    "ranker_transformer": {
        "target_table": "7f4cf084e9308d139b2d55564e0126743a16c5fa788c8c9556fc1b7f0e52944a",
        "history_table": "2234d0cc9c2c3c9a94323d0add06f1415d9314da3417d7c3917278f985caadfd",
        "ts_table": "920e62b43d75e89f35ea56fbb9cbe7907a0f088effb60023a380b4c1eed7e842",
        "pad_embed": "da2b32fb0c331b2a98fc065638f673d9f7a60c114bee9e23a689068d52c387bb",
        "pos_embed": "9ab08cded43bebe0e65ea5fb2721484b388d9e3677affa2b2a5bfc548c95fde5",
        "agg.wq": "9e508c6d348caec0648704ef80605b86019bea57b7f3585554fddfeba07a6835",
        "agg.wk": "e3b57eaa86d5701f1168871b205e2732e58c7cc5913f2ffdbe4220cdec30cb3c",
        "agg.wv": "a678aaa795f0dfcf334566c37e7dbe0c69d984cc38e88fcc1662d358a577845e",
        "agg.ln1.g": "dbd8ebb4d364765882694170cedf5afc7702dd5338a7198705c45b613f6e1c9d",
        "agg.ln1.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "agg.ln2.g": "dbd8ebb4d364765882694170cedf5afc7702dd5338a7198705c45b613f6e1c9d",
        "agg.ln2.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "agg.mlp.0.w": "1c9aa8be610612ada3732418b2f50d9e892dc05b12c5284603a3d830deffa2ef",
        "agg.mlp.0.b": "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
        "agg.mlp.1.w": "0387244dd3e4ab8560d0bdc3a7ccfebdc8f95be5fb73481c237f868bc1768070",
        "agg.mlp.1.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "top.0.w": "9d061278d40d0c4546a797f0e47d74091844213822f86cfffc554e973eae87cb",
        "top.0.b": "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
        "top.1.w": "13ca3980a1e6ae2d096f8ddd034a01ccaed197ce206950abc9edd20510691ed4",
        "top.1.b": "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1",
        "top.2.w": "d273c1628e5fb93a31fb7ddfdec07d611140ebbdd4409966dd4e85c2ccebd1b1",
        "top.2.b": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    },
    "ranker_pma": {
        "target_table": "7f4cf084e9308d139b2d55564e0126743a16c5fa788c8c9556fc1b7f0e52944a",
        "history_table": "2234d0cc9c2c3c9a94323d0add06f1415d9314da3417d7c3917278f985caadfd",
        "ts_table": "920e62b43d75e89f35ea56fbb9cbe7907a0f088effb60023a380b4c1eed7e842",
        "pad_embed": "da2b32fb0c331b2a98fc065638f673d9f7a60c114bee9e23a689068d52c387bb",
        "pos_embed": "9ab08cded43bebe0e65ea5fb2721484b388d9e3677affa2b2a5bfc548c95fde5",
        "agg.wk": "9e508c6d348caec0648704ef80605b86019bea57b7f3585554fddfeba07a6835",
        "agg.wv": "e3b57eaa86d5701f1168871b205e2732e58c7cc5913f2ffdbe4220cdec30cb3c",
        "agg.ln1.g": "dbd8ebb4d364765882694170cedf5afc7702dd5338a7198705c45b613f6e1c9d",
        "agg.ln1.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "agg.ln2.g": "dbd8ebb4d364765882694170cedf5afc7702dd5338a7198705c45b613f6e1c9d",
        "agg.ln2.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "agg.mlp.0.w": "56ec333d654aa92c2d447351c264d9e7a04a4c909a08568619537528604dc814",
        "agg.mlp.0.b": "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
        "agg.mlp.1.w": "b95321a75f84cf43365936cc9893f3ec30a0c040facdff2f3a34f616d3d89230",
        "agg.mlp.1.b": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "agg.seeds": "cf8d94e6406fd921c11c40700a07e342f951fc53a713c333bbe3fc2136fb683d",
        "top.0.w": "2160ce455f923e67348bb7dcaaa1e7df02dae21de8b375af0cfdf70951f035f8",
        "top.0.b": "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
        "top.1.w": "def8a0617d957e9618d8402e47d95dda8bf63dde8a8bb4e2c5ea114a45cc8711",
        "top.1.b": "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1",
        "top.2.w": "82ad032d3e707487f87c59a25fbd013d3820913ff7d3da8beaaceeaebf1df8a8",
        "top.2.b": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    },
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_initial_parameters_match_pinned_digests(name):
    params = MODELS[name]().params
    got = [(p, hashlib.sha256(t.value.tobytes()).hexdigest()) for p, t in params.items()]
    assert got == list(DIGESTS[name].items())
