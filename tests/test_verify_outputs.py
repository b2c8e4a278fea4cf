"""Pinned output of ``verify`` for ``thm1``, ``thm2``, ``least``, ``rank``,
``odd-neg`` and ``regular`` at n = 1..8, parity refusals included.

``VERIFY_LARGE`` pins ``least``, ``rank`` and ``odd-neg`` at n = 9 and
10 the same way; a ``python -O`` CI step checks it, and the tests here
check only that it covers those claims and sizes.  The digests and how
they are taken are in ``tests/verify_digests.py``, which also prints
both tables again.
"""

import pytest

from verify_digests import CLAIMS, LARGE_CLAIMS, LARGE_SIZES, SIZES, moved

# claim -> n -> (text, json): exit code, stdout without timing_ms, stderr
VERIFY = {
    "thm1": {
        1: ("f59da92b17d89721e19de3330b793c3339c3ac634644af9c3e4c289f467b956c",
            "0dcf6a7da14c9073c6463cf3b5bfebcf3818fb7535c560f74352b33c768b8984"),
        2: ("f98f714acc6b3f34e6ba4ebc4d19381a0482f29e7d2ed2c73711bbed9f0141fd",
            "a32ef799c03299c97ea6ae4e7b4c9cbb72a66c33a42b6a0f6af93efe16aec6a4"),
        3: ("60009926b29899ab3a8bda12e1992dbfe818ee576030aafad65cc4a7cae73e91",
            "6dc3858e050deacb4bc555e2eeef13d5ee1044d2e35940fc131f78ab2f019e5e"),
        4: ("92da1549c54fd413615ef30ffaf9ae76b2f5cd5146dddbcd1cec36d09bba787a",
            "2591092f14070f349ab902217c465286f0f2f847289d25da72941ec52ecefa42"),
        5: ("8c9c23e820ceaf14032a6bcbb52705d3b501a0e1e60fd33d7eb779dddae771e4",
            "59e42b3c0533482fce4ca732c41dbdcd609d420265d6bbaf5b97980fbba59496"),
        6: ("949ba3906e55a8baad69522172a27587ab7b0bc81c74bd6662f081a6f5d7333d",
            "a68259bb221277b1609c108ffa94e21ed136e2b1c2ef650b6eb530fa0f618020"),
        7: ("354ac714c44533f3bf67eee97fd9b18636329cdf6c0c7f50b28a62c2df7ce40d",
            "c38e59e7a15eadc4db4a25c959bd37e0ea63abd59d258c27c694e2ecccdc45af"),
        8: ("1a91a7e7d9fabc144f763f69e3c8b18e5e042d3d3bb84cb34b4d12e7dba9966c",
            "b6bbfd61c1c2bb618491d8f2229766e0c17ef36814371589d6c74f3cf1aba85d"),
    },
    "thm2": {
        1: ("d77d48e0b3c97a10239cbf2dfcfc896d44a1dad0acad61b32186c8014c5ad229",
            "d77d48e0b3c97a10239cbf2dfcfc896d44a1dad0acad61b32186c8014c5ad229"),
        2: ("72c570d833159d80ff2687ed1b0d304a340576458afa71922d9c96309ef57302",
            "5b4e97f5718f205f1a34d75b7d8026eb3afc6c71de4fddd04f4e94565040e3ac"),
        3: ("d77d48e0b3c97a10239cbf2dfcfc896d44a1dad0acad61b32186c8014c5ad229",
            "d77d48e0b3c97a10239cbf2dfcfc896d44a1dad0acad61b32186c8014c5ad229"),
        4: ("1bfb2422a1a03bea55c85773b22e169ff3aa2cd943b1c07e400c71b7a1cc4587",
            "aa8d5218c08413114b6603400abd70fff88f8a1c120d391eff9a35a74ce7b683"),
        5: ("d77d48e0b3c97a10239cbf2dfcfc896d44a1dad0acad61b32186c8014c5ad229",
            "d77d48e0b3c97a10239cbf2dfcfc896d44a1dad0acad61b32186c8014c5ad229"),
        6: ("aec806194c2c2d2866d0f3179cffab4734d8b196e5f1cf1480a22ee10889370b",
            "9a7cec539013a2480c111d0b3de3e97363224224de47ade7b7f2ead3b373ea72"),
        7: ("d77d48e0b3c97a10239cbf2dfcfc896d44a1dad0acad61b32186c8014c5ad229",
            "d77d48e0b3c97a10239cbf2dfcfc896d44a1dad0acad61b32186c8014c5ad229"),
        8: ("87e2d8e0ed198b939b2327f6ce0922e35ba439e52d967f84ae6da9e2019e9292",
            "2ac488c5518e01df448b13f2c694dbd699079aa61490a02b51b2e94cd7d9b6df"),
    },
    "least": {
        1: ("6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585",
            "6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585"),
        2: ("f78c05aa050c9496fbb62a0ca6918694c2ff7c20d602379a8033b59db6002eab",
            "049791a457e80794f378a87a8449b032ea4b1a02070dc494008f26fb2e6e6ece"),
        3: ("6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585",
            "6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585"),
        4: ("8694bccc2f91c0f29ba4650f048611e1da3fbf776b5fceb3d87756eb039a2203",
            "fecd67ce1aff8446e8fa3eaa42c60066fa3c0f505af5352052aea5f8a560ce89"),
        5: ("6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585",
            "6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585"),
        6: ("8963ec8118585b0f60628de4658969f309e4e4b97bbd027c7408057c8f93ea6f",
            "fec1c8a867e58159a98924308fd2017187c30074672a760edb040fb280ab836f"),
        7: ("6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585",
            "6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585"),
        8: ("51d1ade7c058bb36403d171d64079f6a28d5f6f0871f233318a08ee1ea6d83f5",
            "56f843c0793a5bb7dbb2067e974b2186f98213158c24b7bcfc55229ae3b00d5c"),
    },
    "rank": {
        1: ("39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce",
            "39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce"),
        2: ("9fc9505cea3cadb311569982b3c06eeb660fdbe0688f19a878c1eccbf7a68ed9",
            "ab3070ea4699cde940b0b5c9fd9bb402ebe5b0c22a0c82c9995df24ad0c31758"),
        3: ("39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce",
            "39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce"),
        4: ("b094cb9088b45f2f63e70d872335272ea5f9ed762e44d7a8aa2c9f397177df60",
            "b455922448f261e4cd7e00b0224e8bef0e3ab3707f192ec9a33fcfd7d08a18af"),
        5: ("39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce",
            "39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce"),
        6: ("e6ab161f0d9d607e28b04c1264b92788571ac2f9613802bfc1873ae6c3d7689c",
            "36e23b5a9cc40d2ee0ddb33f34d5738d9cb8117b57aeb683875e537a52e162b5"),
        7: ("39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce",
            "39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce"),
        8: ("029fe0e3c2ea585cddaa0ed2b206462c0001416fb2695bac0a731f22437764b7",
            "fe6ee7ed2ea2b080951e75e09f5ea48525cb2a9270c96cf92ad7b594a79d1092"),
    },
    "odd-neg": {
        1: ("6ef9e86090ee7f5aafa75793cf0cec0a344d26ee7935a4897b4e8c24cee14ba3",
            "7d6953b4a21105c472e904ba71fba059cfcfbdd17cd297ef2d823526766d6bc4"),
        2: ("ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e",
            "ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e"),
        3: ("f044844e068bb6247656270ac0294400bb62333ec8329c7a6cfa37853e5647cc",
            "aca46841615b00392f46f41f851adb329f5f5be7dce4ceae2ab9250447916ea7"),
        4: ("ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e",
            "ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e"),
        5: ("f044844e068bb6247656270ac0294400bb62333ec8329c7a6cfa37853e5647cc",
            "ee68d1a57332b83f06f61a51ff4532495913fb2a0f74045396ec5da49b039ff5"),
        6: ("ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e",
            "ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e"),
        7: ("f044844e068bb6247656270ac0294400bb62333ec8329c7a6cfa37853e5647cc",
            "dede50b978936aa310cae2e71289a59c4d4c26cf47a39b505192b5581a8b3d61"),
        8: ("ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e",
            "ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e"),
    },
    "regular": {
        1: ("bbd92ab2715b366eec1ec576d1f19ff5f20ecf55358b1f7d1e9bf64d4b7c61e6",
            "bda9c55bea356a008a5aca4b49c20532fe86e0850c5e9cfb62e22afddb609efb"),
        2: ("6555429955ed6b23d2c034139ba9b8f9bf9f23ec23d61fb4692591da97110bf1",
            "e95e9829ff1e84faa37ed19b1b033a01e62c4f82f2fa2795532436078256cda2"),
        3: ("349ad433674851454ab460a72ffb2712c9b239d54b56fcaaa6bc10673f912be0",
            "8c268e485af7b2d169bd4ce7d21efe576e34608dc8236b7f2c4643963b7dfc7b"),
        4: ("ace1c7fd8d0c0ba3e0e2633115eb6e57dee480c6e38004b41df546fc1ef7353e",
            "ac438500e5b94918665826c43dc13bd86271c8ea78edba45c1e21eba08c8b005"),
        5: ("506332eafd4842a78942e254e30056dd1408b30c6dba4e7a4c184f7f1d2d01c3",
            "08ed18e92ec574af0a23a91f1b81986b19dda5f32faa1a3a152f9cf5ecf86e15"),
        6: ("8f35ba09e3ec5d3b71026543d235577be06da88b22ba1eaf934b4451f90d70ec",
            "2c24212c4f4d98b329dae189948de70c2331fd0a5b03f60a304a0a1eda8c47b4"),
        7: ("64b31b33d36be10c965d7b0600c605f1ebf3563b992a6a35a3c04dbc338bd683",
            "4e27e3144e519d41c2feee2ac45ee8aae742714d17bc4ab4414e86f4f7bd77e7"),
        8: ("27001485cd404e68966ad8b72ca395d3c5df348215ef8a00cba6b3340dd93e45",
            "601e22ec7a4c0dc851fb4db7460dde450c9f3a91a5fbac09c680af8fc50a327a"),
    },
}

# claim -> n -> (text, json), at the sizes past the test suite's
VERIFY_LARGE = {
    "least": {
        9: ("6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585",
            "6895ed98211fa196a9d255f4b9cef2ed00ea75567fec85cbedaa2e7ae9e46585"),
        10: ("dcd3029641d574d21f5c757ca57d498b1d02203413c5076f794a33753a2f171e",
            "60ed64977a248568f8ff6f823bc7d757bf75df27614e94d570931fd0d72fe5e1"),
    },
    "rank": {
        9: ("39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce",
            "39714bce460ae84dbcb8c6385cd843c3d60cb83d3bc910eec90a2fa5285f49ce"),
        10: ("a0bd1b5021f94accbaaa14de5b30e3c6cd3b1b1a279cfe320e7af36da2835c21",
            "2f3d963ed4d2bc7bf7cec425c995adc74d6f8af272a11af0389ef83f937151ed"),
    },
    "odd-neg": {
        9: ("f044844e068bb6247656270ac0294400bb62333ec8329c7a6cfa37853e5647cc",
            "ff86e1f4f92cc546182e4ed64e6f5a0852ac857f7dfbf8579f9235b654802bbe"),
        10: ("ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e",
            "ceffbab56f0d278df7cdc6dd82ea2f7321ff806fafca9ce69b72e490eda4e27e"),
    },
}


def test_table_covers_every_claim_and_size():
    assert sorted(VERIFY) == sorted(CLAIMS)
    assert all(sorted(by_n) == list(SIZES) for by_n in VERIFY.values())
    assert sorted(VERIFY_LARGE) == sorted(LARGE_CLAIMS)
    assert all(sorted(by_n) == list(LARGE_SIZES) for by_n in VERIFY_LARGE.values())


@pytest.mark.parametrize("claim", CLAIMS)
def test_verify_output_pinned(claim):
    found = moved({claim: VERIFY[claim]}, SIZES)
    assert not found, f"verify output moved at (claim, n) = {found}"
