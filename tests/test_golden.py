"""CLI data files at their defaults, byte for byte: the sha256 of every file
the 10 figure presets, the default sweep and the four default decompose
tables write. A change that keeps the outputs must keep these digests; a
change that means to alter an output updates its digest and says why.
Tomography reports are left out: their 17-digit floats depend on the libm
and BLAS the fit runs on."""

import hashlib

import pytest

from aptsim import cli

# argv before --out: {file name: sha256}; figure writes one CSV per curve
# into a directory, sweep and decompose one CSV each
GOLDEN = {
    ("figure", "--figure", "2a"): {
        "fig2a_1.2_1.2.csv": "6a422ef45b691daafd1ee900f6879d9ae3c5ab505e48cb56dac298b37545aafa",
        "fig2a_1.8_1.8.csv": "d47abd368ea9f513880a4940a498be76f8ffda87ce285fcebb6476bb3976572b",
    },
    ("figure", "--figure", "2b"): {
        "fig2b_1.01_1.01.csv": "7631794a01a57c3eac2844214af05c24733c25a8d1eff7c8ffd18443a986c6a1",
    },
    ("figure", "--figure", "3a"): {
        "fig3a_1.2_1.3.csv": "4bf9dc8699da659b070bf3f28e7d35fe6c4ed481e81c291cda106a4d82fe4daf",
        "fig3a_1.5_1.6.csv": "8f6d8f372dc53cb2d0bcdff65e06ba681a4ab3e309d96ca70fa4a91403a035a5",
    },
    ("figure", "--figure", "3b"): {
        "fig3b_1.01_1.03.csv": "f1143ee7379e60491dfa22d73b64995d622d0fa5f04f5559baa693d0270c3271",
    },
    ("figure", "--figure", "4a"): {
        "fig4a_0.8_0.5.csv": "0c530a5236f785dcff58178bbd9ce6acfeefee742c61230d71f050a4e8c8e28f",
        "fig4a_0.8_0.6.csv": "260287bddd0afbae757db854c81e1adcb6088fe486c3b53273517f68a8580c5b",
        "fig4a_0.8_0.7.csv": "b0ffb804ca57bc9b5e4d7c1bc2f64fb36d8840880e4fa05a3a8789c20900b6a3",
        "fig4a_0.8_0.8.csv": "a3b2883c7fee5462151942126099d02132561b27eb127e0e1b67173c34bfef5d",
        "fig4a_0.8_0.9.csv": "211c17515613727d9728f81b49830085a8ff8f1094d72d5b874f10e6f37c8ead",
        "fig4a_0.8_1.1.csv": "a53fe18e64a0904ed40f2fb030572d904c6694583c1615bc81c4eaec6274966c",
        "fig4a_0.8_1.2.csv": "a4309c13010139238128c6fc7476e495ecca14b02fbaf7b649a111325464b732",
        "fig4a_0.8_1.3.csv": "1717935ceaa0508b90c009565bc180cbf9558afd8ec6ea06e20bdd5708982788",
        "fig4a_0.8_1.4.csv": "49f1bfc58f0df0afc5166612455db3f0ac4757a9299e29c4d7aa0bd0946de215",
        "fig4a_0.8_1.5.csv": "03b2b5bb1d425c878407ed33706583e39439e21cc44cc62c3941fb9718a0354f",
        "fig4a_0.8_1.6.csv": "18fdc5f945741209b1a50187e6601689c2edaabc3915b22a30285cd1f50082ca",
        "fig4a_0.8_1.7.csv": "ae9974c31e25ddacafa808950b1649c472aba2880f632ea26191faca6264a0c6",
        "fig4a_0.8_1.8.csv": "b24394e89300a9683027bf65fe7d670eb56abaf28fef3aad775aeb2d2ee33f40",
        "fig4a_0.8_1.9.csv": "9393cd079cd7d7e1e9002b2d2bc93aa629ef571eb44f27bf9e6e66e0e235f9d9",
        "fig4a_0.8_1.csv": "056089ff9dc7b27d857bf6f5d34a6a89c1a1f691463348973bda6a2d7dffa743",
        "fig4a_0.8_2.1.csv": "02ecb9db41f4b22655b8fed02dcab28f7db118bc0a15930de9a35b586939fa0a",
        "fig4a_0.8_2.2.csv": "e4e94011fa7db67644976da22662f226178ca03ad6ae710d80472935560d772f",
        "fig4a_0.8_2.3.csv": "6e78586f732dceac7496c164bb4a2a40ac747b3b784522cfbe5972729dfbe6cc",
        "fig4a_0.8_2.4.csv": "410f8e676112b1cb5b2db9d4b738b7f5b6776ddffb0c1bcad9fe5987dc1bd1ac",
        "fig4a_0.8_2.5.csv": "d362f2ea2d53eab0ac51cf177398504c88588f8fcd9c10b2301e4b6fac6da63a",
        "fig4a_0.8_2.csv": "1183913cff6c49ec44cd94c021516cc366f92988ec246d1ec58135e52149be80",
    },
    ("figure", "--figure", "4b"): {
        "fig4b_0.8_0.8.csv": "a3b2883c7fee5462151942126099d02132561b27eb127e0e1b67173c34bfef5d",
        "fig4b_0.8_1.csv": "056089ff9dc7b27d857bf6f5d34a6a89c1a1f691463348973bda6a2d7dffa743",
        "fig4b_0.8_2.csv": "1183913cff6c49ec44cd94c021516cc366f92988ec246d1ec58135e52149be80",
    },
    ("figure", "--figure", "4c"): {
        "fig4c_1_0.5.csv": "9a570439bc3f750682de37c2b517f4e030966efce88ee55956023c7a0aa9820a",
        "fig4c_1_0.6.csv": "2945d87a32d3d75033b650ab11a8a792ab61d1f19c0a8fc786265bc0ca097ca8",
        "fig4c_1_0.7.csv": "30512e008aaa9d1e68539a38c595717b858c4e0021c7b2a3ec736328cb62c984",
        "fig4c_1_0.8.csv": "056089ff9dc7b27d857bf6f5d34a6a89c1a1f691463348973bda6a2d7dffa743",
        "fig4c_1_0.9.csv": "38a90689f71c3aab4c277bffb8affd44d47a60d48d0bd34e39bb3f379d8ba104",
        "fig4c_1_1.1.csv": "7b18b9842bb0fa6f7075adf87a7aa74fabea8c117a857e9b4225f6b278b6bd22",
        "fig4c_1_1.2.csv": "18e352ab7ad8deb2736c129996b921fab2ae64aa953b75a73afb8361afd66e90",
        "fig4c_1_1.3.csv": "d406ca2ffffe0c37a2c1e1b782501beb5d5de425dac4eae43aed3837829149dd",
        "fig4c_1_1.4.csv": "8f25c6d4f3c2b2b6d0a5d915a16cecbd4fd4fe335945551d5a1a77f929dc85e5",
        "fig4c_1_1.5.csv": "b9d38409ccf820a89c7d38a567d30886cbfd34bffb354d72749bac7f7d40e82b",
        "fig4c_1_1.6.csv": "1737ef39ec4b2edc3a5a08523bb966b0548b9bbc6daabb67db4d85eb50df8196",
        "fig4c_1_1.7.csv": "2d74c20831f1ee49c587ec91e17d4eaf49dfb349f73cae18a25d32680d09c075",
        "fig4c_1_1.8.csv": "9cd2d4cf582df61fbaa692ff133321c54a8f4edc74dccc59df8f797106e173b1",
        "fig4c_1_1.9.csv": "45ca723738d782bbfc1cd311843d58ba79c9afea7a9fccf8291db43832180dc8",
        "fig4c_1_1.csv": "b5fb682c4a1a6ee1454981b4efd06d817b8d55244ce1e19a7691e1369ee3e850",
        "fig4c_1_2.1.csv": "701f5febaab5eb0fa46267e36b41193d933d71b52030f13691ed3b7444902e96",
        "fig4c_1_2.2.csv": "d67aad6ebe66eb0f22f8c2cdc078b39f619c1ffddb77e910ca037c501b34c464",
        "fig4c_1_2.3.csv": "53a685a14b04aa754d6830639bdca3b0c9618798bb5f87152cec7982f802351f",
        "fig4c_1_2.4.csv": "c25dce370e0dbc5974a595d5cab1b8167f2372a14c91b7503f4ab983fe4d306a",
        "fig4c_1_2.5.csv": "c73025a581166ea5a591a85e24c6cf1c2c710b1bd9bc2a97bbd360c3ee0ff903",
        "fig4c_1_2.csv": "a8c930aaefbd9c18a375d4d1c9347ba24206fc646d1471b16fd5c5fd9a529a83",
    },
    ("figure", "--figure", "4d"): {
        "fig4d_1_0.8.csv": "056089ff9dc7b27d857bf6f5d34a6a89c1a1f691463348973bda6a2d7dffa743",
        "fig4d_1_1.csv": "b5fb682c4a1a6ee1454981b4efd06d817b8d55244ce1e19a7691e1369ee3e850",
        "fig4d_1_2.csv": "a8c930aaefbd9c18a375d4d1c9347ba24206fc646d1471b16fd5c5fd9a529a83",
    },
    ("figure", "--figure", "A4"): {
        "figA4_0.8_0.8.csv": "91e25708df88b32c7002ce39f59eba1498bd149ef4ce44e8563010cc9e4c9ea6",
        "figA4_1.2_1.2.csv": "6a422ef45b691daafd1ee900f6879d9ae3c5ab505e48cb56dac298b37545aafa",
        "figA4_pt0.748331_pt0.748331.csv": "9e92473cfe6b574d8430da08598c0cf3a0751a5f42dd8103d731c698c8535bb1",
        "figA4_pt1.16619_pt1.16619.csv": "4738a385a0a4ea27fc89d8051b139a369ab60f0a0e2558c94ee97ecf27369074",
    },
    ("figure", "--figure", "A5"): {
        "figA5_0.8_id.csv": "db5cb25225f34f1b759a8ac0fc498483ecfc1d55d98ef251b962f573a9e5ae62",
        "figA5_1.2_id.csv": "9257c0e0a6e0c77cf69a70c5b595b2aac3df9d7a611f67660d456ebc49aae519",
    },
    ("sweep",): {"sweep.csv": "24c594b3c7065890ce7ba86c60006d57afb59a31d49c577c6045b92726fe59b5"},
    ("decompose", "--a1", "0.8"): {
        "decompose.csv": "4c41adbf94686e28aa1c7f2dc8900a0db9f21120e366799473444ba515d0a2bc",
    },
    ("decompose", "--a1", "1.0"): {
        "decompose.csv": "3fc894888bd2610e3579fbabd732c5513e242bf7a984b82ac502a73676a32427",
    },
    ("decompose", "--a1", "1.2"): {
        "decompose.csv": "752564e4e95f1e89548c37fba780e8ff909b0c16ad9d1d1cf30912b411f27e5b",
    },
    ("decompose", "--a1", "1.8"): {
        "decompose.csv": "9e4c9d9d17b568d32ec0bac66c65816d577d51ffec61aa5af8d48b3215db7162",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_outputs_match_digests(argv, tmp_path):
    expected = GOLDEN[argv]
    out = tmp_path / "out"
    if argv[0] == "figure":
        target = out
    else:
        out.mkdir()
        target = out / f"{argv[0]}.csv"
    assert cli.main([*argv, "--out", str(target)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert written == expected
