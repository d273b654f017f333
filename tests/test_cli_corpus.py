"""A fixed corpus of CLI invocations whose output is pinned byte for byte.

Each case runs ``cli.main`` in-process and hashes its stdout, stderr and
exit code together.  The corpus covers every subcommand in every format
over QQ, QQ(z), QQ(omega) and the floating field, specialization at
rational, omega and float points, at poles and on both sides of the
floating tolerance, excluded parameters, the random-probe branch of
``is_isomorphic``, one suite run, QQ(z) values at and over the size
limit, results over the interpreter's integer digit limit, and ``--raw``
files with malformed metas or a singular float matrix.  A change that keeps
every output must leave every digest as it is.
"""

import hashlib
import json

import pytest

from braidrep import cli
from braidrep.grammar import parse_family_spec, representation_to_json

# under the interpreter's integer string limit, so each literal parses; the
# product and mu's z^4 hold more digits than the limit lets print
DIGITS_4000 = "7" * 4000

CASES = {
    "show-burau-text": ["show", "burau(z)"],
    "show-burau-json": ["show", "burau(z)", "--format", "json"],
    "show-burau-latex": ["show", "burau(z)", "--format", "latex"],
    "show-mu-text": ["show", "mu(z)"],
    "show-mu-omega-text": ["show", "mu(omega)"],
    "show-mu-omega-json": ["show", "mu(omega)", "--format", "json"],
    "show-mu-omega-latex": ["show", "mu(omega)", "--format", "latex"],
    "show-mu-float-text": ["show", "mu(0.3)"],
    "show-mu-float-json": ["show", "mu(0.3)", "--format", "json"],
    "show-mu-float-latex": ["show", "mu(0.3)", "--format", "latex"],
    "show-thm1-i": ["show", "thm1_i(z; f=-z/(z+1))"],
    "show-thm1-ii-json": ["show", "thm1_ii(2/3; e=5)", "--format", "json"],
    "show-xi-n4": ["show", "xi(z; n=4)"],
    "show-burau-diag-latex": ["show", "burau_diag(1/2)", "--format", "latex"],
    "show-tensor-json": ["show", "tensor(burau(z),burau(z))", "--format", "json"],
    "show-dual-float": ["show", "dual(burau(-0.25))"],
    "show-mixed-fields": ["show", "direct_sum(xi(omega),xi(2))"],
    "excluded-mu-minus-one": ["show", "mu(-1)"],
    "excluded-mu-pascal-minus-one": ["show", "mu_pascal(-1)"],
    "excluded-burau-zero": ["show", "burau(0)"],
    "excluded-xi-zero": ["show", "xi(0)"],
    "excluded-mu-float-minus-one": ["show", "mu(-1.0)"],
    "excluded-mu-tiny": ["show", "mu(1e-12)"],
    "parse-unknown-family": ["show", "nosuch(z)"],
    "parse-end-of-input": ["show", "xi(z^)"],
    "parse-missing-spec": ["show"],
    "verify-burau": ["verify", "burau(z)"],
    "verify-mu-float-json": ["verify", "mu(0.3)", "--format", "json"],
    "verify-tensor-omega-json": ["verify", "tensor(burau(omega),burau(omega))",
                                 "--format", "json"],
    "verify-mu-pascal-latex": ["verify", "mu_pascal(5/7)", "--format", "latex"],
    "decompose-square-text": ["decompose", "tensor(burau(z),burau(z))"],
    "decompose-square-json": ["decompose", "tensor(burau(z),burau(z))", "--format", "json"],
    "decompose-mu-one": ["decompose", "mu(1)"],
    "decompose-square-float": ["decompose", "tensor(burau(-0.25),burau(-0.25))"],
    "decompose-mu-float": ["decompose", "mu(0.5)"],
    "decompose-burau-fails": ["decompose", "burau(z)"],
    "decompose-square-omega-json": ["decompose", "tensor(burau(omega),burau(omega))",
                                    "--format", "json"],
    "specialize-rational": ["specialize", "mu(z)", "5/7"],
    "specialize-omega-json": ["specialize", "mu(z)", "omega", "--format", "json"],
    "specialize-float": ["specialize", "mu(z)", "0.3"],
    "specialize-float-latex": ["specialize", "mu(z)", "0.3", "--format", "latex"],
    "specialize-pole": ["specialize", "mu(z)", "-1"],
    "specialize-float-pole": ["specialize", "mu(z)", "-1.0"],
    "specialize-float-tiny": ["specialize", "burau(z)", "1e-12"],
    # the tolerance boundary: mu's entry q^2 is about 9.99e-10 at 3.16e-5 and
    # counts as zero (exit 3, not invertible), 1.0049e-9 at 3.17e-5 and does not
    "specialize-float-below-eps": ["specialize", "mu(z)", "3.16e-5"],
    "specialize-float-above-eps": ["specialize", "mu(z)", "3.17e-5"],
    "specialize-exact-input": ["specialize", "burau(2)", "3"],
    "specialize-square-omega-json": ["specialize", "tensor(burau(z),burau(z))", "2+omega",
                                     "--format", "json"],
    "isomorphic-pascal": ["isomorphic", "mu(z)", "mu_pascal(z)"],
    "isomorphic-pascal-json": ["isomorphic", "mu(z)", "mu_pascal(z)", "--format", "json"],
    "isomorphic-no": ["isomorphic", "xi(z)", "xi(-z)"],
    "isomorphic-float": ["isomorphic", "mu(0.5)", "mu_pascal(0.5)"],
    "isomorphic-omega-json": ["isomorphic", "burau(omega)", "burau_diag(omega)",
                              "--format", "json"],
    "isomorphic-probe-yes": ["isomorphic", "direct_sum(xi(2),xi(3))",
                             "direct_sum(xi(3),xi(2))"],
    "isomorphic-probe-yes-json": ["isomorphic", "direct_sum(xi(2),xi(3))",
                                  "direct_sum(xi(3),xi(2))", "--format", "json"],
    "isomorphic-probe-undecided": ["isomorphic", "direct_sum(direct_sum(xi(2),xi(2)),xi(3))",
                                   "direct_sum(direct_sum(xi(2),xi(2)),xi(5))"],
    "suite-json-seed-3": ["suite", "--format", "json", "--seed", "3"],
    "raw-show-float": ["show", "--raw", "float-burau.json"],
    "raw-verify-float-json": ["verify", "--raw", "float-burau.json", "--format", "json"],
    "raw-decompose-float": ["decompose", "--raw", "float-burau.json"],
    # singular, though eliminating [M | I] overflows in the identity block:
    # exit 3 "not invertible", read from the pivots of M alone
    "raw-show-float-singular-overflow": ["show", "--raw", "float-singular-overflow.json"],
    "raw-verify-perturbed": ["verify", "--raw", "perturbed-burau.json"],
    "parse-product-over-cap": ["verify", "xi((z+1)^1024*(z+1)^1024)"],
    "show-power-at-cap": ["show", "xi((z+1)^1024)"],
    "show-product-at-cap": ["show", "xi((z+1)^512*(z+1)^512)"],
    "render-digit-limit-text": ["show", f"xi({DIGITS_4000}*{DIGITS_4000})"],
    "render-digit-limit-json": ["show", f"xi({DIGITS_4000}*{DIGITS_4000})", "--format", "json"],
    "render-digit-limit-mu": ["show", f"mu({DIGITS_4000}/3)"],
    "render-digit-limit-specialize-latex": ["specialize", "mu(z)", f"{DIGITS_4000}/3",
                                            "--format", "latex"],
    "raw-show-tensor-round-trip": ["show", "--raw", "tensor-burau-2.json"],
    "raw-meta-not-object": ["show", "--raw", "meta-not-object.json"],
    "raw-meta-params-list": ["show", "--raw", "meta-params-list.json"],
    "raw-meta-param-list": ["show", "--raw", "meta-param-list.json"],
    "raw-meta-missing-z": ["show", "--raw", "meta-missing-z.json"],
    "raw-meta-family-int": ["show", "--raw", "meta-family-int.json"],
    "raw-meta-param-bool": ["show", "--raw", "meta-param-bool.json"],
    "raw-meta-param-too-long": ["show", "--raw", "meta-param-too-long.json"],
}


def _float_matrix(rows):
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[{"re": x, "im": 0.0} for x in row] for row in rows]}


def _burau_5_7(meta):
    return {"braid_index": 3, "meta": meta, "images": [
        {"rows": 2, "cols": 2, "entries": [["-5/7", "0"], ["1", "1"]]},
        {"rows": 2, "cols": 2, "entries": [["1", "5/7"], ["0", "-5/7"]]}]}


# --raw files, written to a temporary directory under these names: burau(-0.5)
# over the floating field, a singular float matrix whose [M | I] overflows,
# burau(5/7) with one entry of sigma_2 moved, the JSON of
# tensor(burau(2),burau(2)), and burau(5/7) under malformed metas
RAW_FILES = {
    "float-burau.json": {"braid_index": 3, "images": [
        _float_matrix([[0.5, 0.0], [1.0, 1.0]]), _float_matrix([[1.0, -0.5], [0.0, 0.5]])]},
    "float-singular-overflow.json": {"braid_index": 2, "images": [
        _float_matrix([[1.0, 1e301, 0.0], [0.0, 2e-8, 0.0], [0.0, 2e-8, 0.0]])]},
    "perturbed-burau.json": {"braid_index": 3, "images": [
        {"rows": 2, "cols": 2, "entries": [["-5/7", "0"], ["1", "1"]]},
        {"rows": 2, "cols": 2, "entries": [["2", "5/7"], ["0", "-5/7"]]}]},
    "tensor-burau-2.json": representation_to_json(parse_family_spec("tensor(burau(2),burau(2))")),
    "meta-not-object.json": _burau_5_7(5),
    "meta-params-list.json": _burau_5_7({"family": "burau", "params": [1, 2]}),
    "meta-param-list.json": _burau_5_7({"family": "burau", "params": {"z": [1]}}),
    "meta-missing-z.json": _burau_5_7({"family": "mu", "params": {}}),
    "meta-family-int.json": _burau_5_7({"family": 5, "params": {"z": "2"}}),
    "meta-param-bool.json": _burau_5_7({"family": "xi", "params": {"z": "2", "n": True}}),
    "meta-param-too-long.json": _burau_5_7({"family": "burau",
                                            "params": {"z": "1" + "+1" * 10_000}}),
}

DIGESTS = {
    "decompose-burau-fails":
        "32ff263e3e778d9cb8dfd70564f5472206feb5cc5cb0e5fb38689b9c264fd774",
    "decompose-mu-float":
        "32ff263e3e778d9cb8dfd70564f5472206feb5cc5cb0e5fb38689b9c264fd774",
    "decompose-mu-one":
        "7e43d997a63e42371c151b97d534c8100d959cd91bbaa6f3d8a6f5cd90424555",
    "decompose-square-float":
        "f9c9641ef26eedf4aa2be0b9e8564b09755b898e4a6dc3e9b69b79750853ec68",
    "decompose-square-json":
        "18c0d64c05a4ec12ce13798ba565bf7ddbe332d2b5c9ff80826ac1c75bba0d17",
    "decompose-square-omega-json":
        "4180a26d50cf1bbedb03682b62e8e8fc54efb42a4a54c374c10d8270045d5a39",
    "decompose-square-text":
        "9b2b22e906908ab19563a84df13eccb888fe2ed6fa97796eef9973c3097bbc5a",
    "excluded-burau-zero":
        "03963c0c101a67582692130c5d28280bb1a6e99b046a79af5110133f3fcebde5",
    "excluded-mu-float-minus-one":
        "d7c6e52a7e321c8eda4ab7e03bc7bc6e8ba4554b020238aa2e5e5e3b53724f3a",
    "excluded-mu-minus-one":
        "d7c6e52a7e321c8eda4ab7e03bc7bc6e8ba4554b020238aa2e5e5e3b53724f3a",
    "excluded-mu-pascal-minus-one":
        "cf4c6726aaf8a3ab4ee44ccb1d1fd13d1f69e4e5cb8e4d45302a04d1c89e0673",
    "excluded-mu-tiny":
        "2c7114ee5c22d137d4b7f35668e38ec2323e71a9b22cb4355780f6e01c081a6c",
    "excluded-xi-zero":
        "4563880bf74502c263819f7af60f8fe64e4ec0abb7f7bfbcccfe11d3c8055536",
    "isomorphic-float":
        "8232849c3d3bf379fd08600b7a2b7c7527186a7d47b5c693b169ce2cd2690318",
    "isomorphic-no":
        "da2420e164c58a4b1c4839d01009e9dac4fddf56512c51404b98902461b6d257",
    "isomorphic-omega-json":
        "db382f79d7da28f86ebc56249a1739bcad72a6db0d6f31f51f69bb184f522c53",
    "isomorphic-pascal":
        "a097258fdb90155dda7edf99648e8f25a5f19ed00c1530fcadd657e0ce1f5c00",
    "isomorphic-pascal-json":
        "3668d638d35dd25a3bb0b3aee6edd3eecd46098547cf70d1dcd86c2397e8867f",
    "isomorphic-probe-undecided":
        "944fdeaf728ed292d041ac060307e0f55b1a541a84a7d3387162f62ae85b010a",
    "isomorphic-probe-yes":
        "8f2e4f02d6115b5a60331966afebeb862c2c860e56828aa157360f73b42bde43",
    "isomorphic-probe-yes-json":
        "0aeb04a8d11d4155aee06bff0a37d74b318d5820650c5c565b51a06237e96bd0",
    "parse-end-of-input":
        "da9d20977376006ea056ec226d049ab4193db63e292c6465410c2a231f26ab34",
    "parse-missing-spec":
        "08018fe09af9cac6b0076c171859c3d5f3584ea30e899fb8e81918092ed07894",
    "parse-product-over-cap":
        "724d20f58209a93852ef53f4b72d68e12a68f9240121717c13d19fd6c6f92f6f",
    "parse-unknown-family":
        "ff1e403e2f2419b29839523cbc7409cb37db6b91f8798f8899322bc8e6e132d1",
    "raw-decompose-float":
        "32ff263e3e778d9cb8dfd70564f5472206feb5cc5cb0e5fb38689b9c264fd774",
    "raw-meta-family-int":
        "3bca250d054fac6d1e32969410e4a0824384a56a24854ae2c8d54df5dc9dde32",
    "raw-meta-missing-z":
        "969464390df6970537134483837cb3658868950070873ec4349dc350fccacfb5",
    "raw-meta-not-object":
        "e6e39a8319198f1ab7c248336e53060780294c74cbeee62712ede47c0d9de518",
    "raw-meta-param-bool":
        "465fa9c2dc36d011142e44def94f51ccb63ba01082f220630c23e5fbaf99459e",
    "raw-meta-param-list":
        "ef2b9df800dcc86da37d66a105200912f117d6d7cf19175e695e12514f91ff06",
    "raw-meta-param-too-long":
        "da59959b052c51c94ee078addb652332636488c3451bf1897918b8e43123fb41",
    "raw-meta-params-list":
        "4fa734de57deefcf59fcb0c449ce3ff5d9fc562d40c248f4aff52d4aa7917e5a",
    "raw-show-float":
        "e5d255ddd0bcd2045f02559789bfd31715623af6f37ac7d104c90039df9b258b",
    "raw-show-float-singular-overflow":
        "f45091137d4df4038c4a972fa70aea30008b578e9e596f286e0067cc4c75c12a",
    "raw-show-tensor-round-trip":
        "19f9bf6729159c992bb691853ab0c5b41c91ce75821a2ed8f751cb8c666e2082",
    "raw-verify-float-json":
        "17ca88b5d196d52996b5f8c101e8357e7a668ed56120ef625b7c54089e70e799",
    "raw-verify-perturbed":
        "7fa6a7af46b28ce26bc9f5e64ea23314f9837efce05872b49cd7390a187f85be",
    "render-digit-limit-json":
        "5b371e465d51966849669da0e1f125f439b9dcce74500639e4d190056bc4f049",
    "render-digit-limit-mu":
        "5b371e465d51966849669da0e1f125f439b9dcce74500639e4d190056bc4f049",
    "render-digit-limit-specialize-latex":
        "5b371e465d51966849669da0e1f125f439b9dcce74500639e4d190056bc4f049",
    "render-digit-limit-text":
        "5b371e465d51966849669da0e1f125f439b9dcce74500639e4d190056bc4f049",
    "show-burau-diag-latex":
        "f71633e09fa1dacd8ff93186bed5b9105bf6a671f7f4a3e228b18d3380f6c162",
    "show-burau-json":
        "9e4dad293a5973c96f354f0dde4bf79f0b5de2a7a89e89752c575b60ca1fd1f6",
    "show-burau-latex":
        "c05bd58b29610da9dd7ad32abe8ceaae5e06a59d259c4198a41ce265d1d179fd",
    "show-burau-text":
        "725d0da0d0c9dc2f533e89ffac0081900cb144eb8a9c76565040abc5e9824596",
    "show-dual-float":
        "1d1b9f2955fa8dc1846210723fe6dd288a13518b265ef0ae155d1c13bb9a231d",
    "show-mixed-fields":
        "8d5700da0745e44ae0d676ea28e90b9325e7294cbb10c383d78a34afb78bf2cc",
    "show-mu-float-json":
        "bc6f5f5cc29ccb88bf06d6dbdc6aa9c4a9113839b10d2b90dc5b44f19300a329",
    "show-mu-float-latex":
        "b857c29a9f3f1f1cf67519763d60f7e8c458c2b7fc05f9b4f7b81b7fbc76ebb2",
    "show-mu-float-text":
        "2b4415e43c22c62ad1cc6902d17f11caea9b67a2e593d229bc6d8b3597752c46",
    "show-mu-omega-json":
        "0ef6dcb5945ce76bd9abe387397db4aa8dd9f3ae9776e69c323a11bc3cda57ff",
    "show-mu-omega-latex":
        "076b4fcbbd7040a774b38a6f009fd2810ecb7d5e81d836f48a51be1e0a7a603c",
    "show-mu-omega-text":
        "6dace23d24427c14290aa0655a73c4b2647af38db7169e596d467362b88ba958",
    "show-mu-text":
        "479a128663362c722ea5d335f47c8514f9beaa3d251b8f3f81caf3d83256ea68",
    "show-power-at-cap":
        "af4cf24fbe001b7b1051a7a15e98cf0a0a06e8bacc500fc984ba8bdbf92cbcde",
    "show-product-at-cap":
        "af4cf24fbe001b7b1051a7a15e98cf0a0a06e8bacc500fc984ba8bdbf92cbcde",
    "show-tensor-json":
        "fb0b38abe7693ab741b0bc9e894ef2e953672a1a202223f5d90d40d3cf9774ab",
    "show-thm1-i":
        "7573fe8053efd064eefecd9c4dec7093644ef2910809603ba44e85232db45358",
    "show-thm1-ii-json":
        "7bb7c13f29a1cb04466e39f1109ec064741d9d6d471b89d2e598c8871768e618",
    "show-xi-n4":
        "038cc3e97c1ce7322766ad2897e59460ae1a1a996ae7aa64b8d41292d6e9262e",
    "specialize-exact-input":
        "b0ce746afa71a745bbbad14a66e6ff3e873f3de27e00a865ea43af12e3474441",
    "specialize-float":
        "9eaa1ae81ad6a1159a93d517c0b04d0839b83a65fa173de914948d14a574d46c",
    "specialize-float-latex":
        "4695b228cff49909b387aa74c7a1dd473e782ea5be37f1ff827f1021df1c1519",
    "specialize-float-above-eps":
        "c793a1b9ee2f229eb6b1300433f7c3bb25af701d547b0b02c2244b96a368a141",
    "specialize-float-below-eps":
        "f45091137d4df4038c4a972fa70aea30008b578e9e596f286e0067cc4c75c12a",
    "specialize-float-pole":
        "6a9a618bd700104349820ea48c2af482768d3a24e2b91c2fe65f15f28e1f029b",
    "specialize-float-tiny":
        "f45091137d4df4038c4a972fa70aea30008b578e9e596f286e0067cc4c75c12a",
    "specialize-omega-json":
        "0ef6dcb5945ce76bd9abe387397db4aa8dd9f3ae9776e69c323a11bc3cda57ff",
    "specialize-pole":
        "6a9a618bd700104349820ea48c2af482768d3a24e2b91c2fe65f15f28e1f029b",
    "specialize-rational":
        "278e6c999a6072f9e2ec87041b84cf6ef8299e9e709a123cbb4c6966b6cc9d1d",
    "specialize-square-omega-json":
        "0e09b1ea262ac021634815361a85df54552789c683acec632d651149da189797",
    "suite-json-seed-3":
        "aa6f725e16051c954f8d6613423bb83773cc5192bc8c478d6650227ad2632447",
    "verify-burau":
        "263e95a29b3c52ee925744cc057487c23362a8f3ea2d0d7f5d061948ce53d6f9",
    "verify-mu-float-json":
        "17ca88b5d196d52996b5f8c101e8357e7a668ed56120ef625b7c54089e70e799",
    "verify-mu-pascal-latex":
        "263e95a29b3c52ee925744cc057487c23362a8f3ea2d0d7f5d061948ce53d6f9",
    "verify-tensor-omega-json":
        "17ca88b5d196d52996b5f8c101e8357e7a668ed56120ef625b7c54089e70e799",
}


def run_digest(capsys, argv) -> str:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    digest = hashlib.sha256()
    for part in (captured.out, captured.err, str(code)):
        digest.update(part.encode() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(capsys, monkeypatch, tmp_path, name):
    for filename, payload in RAW_FILES.items():
        (tmp_path / filename).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    assert run_digest(capsys, CASES[name]) == DIGESTS[name]
