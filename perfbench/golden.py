"""Golden CLI calls for cli-mix and the cold start-up probe.

Plain data, importable without germinv, so the parent process can check a
fresh-interpreter call without importing the package it measures.
"""

# (argv, expected exit code, sha256 of stdout), recorded from the CLI at commit
# a918e25.  Reports are bit-identical by contract, so any drift is a check
# failure.  Every subcommand appears; some germs recur across calls, which is
# where per-germ memoisation would show.  Of the 35 calls exactly three
# (corpus and charpoly at mu 216 and 64) are far heavier than the rest, so
# op_p90_ms falls in the middle of the fourth-heaviest call's samples rather
# than on the edge of a gap between two calls.
CLI_CALLS: tuple[tuple[tuple[str, ...], int, str], ...] = (
    (('mult', 'x^3 + y^3 + x^4'), 0,
     "2c138317e34cae72ebf5bee433b2bc363ef60cacf6aa33c320f4578e771e43d3"),
    (('--format', 'text', 'mult', 'x^2*y + y^4 + 3*x^5'), 0,
     "0b3fef224e37115939045bca7b80cd651d628d2a454f823bba9e94c20d3a485a"),
    (('milnor', 'x^3 + y^4'), 0,
     "2ec21edd51e2b4b07b5b84111676d26d77cd3e0cf5438a76ff354020560a8c4f"),
    (('milnor', 'x^3 + y^4', '--method', 'truncated-oracle'), 0,
     "3fb1afa8584e60f0be5ea8103e0bc56616f5c4e5e9196374870d039d5083cb0a"),
    (('milnor', 'x^3 + y^3 + x^4', '--method', 'class-A-fast-path'), 0,
     "505143aa601f2e972cfb0f59f390d50edd9c33cc5f3451a70ef9f0152612ec73"),
    (('milnor', 'x^2*y^2 + x^5 + y^5'), 0,
     "c685bb56040144cfb5dff81e0effd916f9cec1c5292c14072750463059c8d550"),
    (('milnor', 'x^2 + y^2 + z^3', '--method', 'truncated-oracle'), 0,
     "626ae8ce61f9a2da74163c0fa2dcd05bea98af4ca31bdfbffe0c2a31a20e300b"),
    (('milnor', 'x^4 + x^2*y^2 + y^4', '--method', 'class-A-fast-path'), 0,
     "5b68f4b8eca7de4aeccd53e9f5d9cc78349c7159c8ad6c9d6c1ca80bb8399159"),
    (('milnor', 'x^2*y^2'), 0,
     "1bf7b217834705fd2cb850da0763a398f760298d47ddab4258228f564d42201a"),
    (('milnor', 'x^3 +'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('zeta', '--fermat', 'l=3,n=2', '--K', '9'), 0,
     "f0546ffec8ea18a39863b07b3659ab1a6e6ee491a2e8aa294440cc63a619340c"),
    (('zeta', '--fermat', 'l=7,n=3'), 0,
     "333c1d69fb623dce05b0fc991290a6cdd3fa571bd1ce8a459105bbf0eb7280a9"),
    (('--format', 'text', 'zeta', '--fermat', 'l=13,n=2'), 0,
     "f0886d0e532783d8b0e86e8568b755200f1ad538996b3c1d022cfb7c4b9456d7"),
    (('charpoly', '--fermat', 'l=7,n=3'), 0,
     "5f3a818ecfcf246a24132931af7e2cb26362a2e33d7a9337280e28e85907bb49"),
    (('charpoly', '--fermat', 'l=5,n=3'), 0,
     "77ba0a4cbc799986eb0996ae2d84487a515fc4ab0e34a42f818fecac3e832ec8"),
    (('charpoly', '--fermat', 'l=11,n=2'), 0,
     "d9d1484eee75fe91148bc0d340e7101ca2ebe8c64b861f4d1710e2974e6b72dc"),
    (('charpoly', '--fermat', 'l=3,n=2', '--mu', '3'), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('discriminate', 'x^2*y + y^4', 'x^3 + y^3'), 0,
     "b155716b00f407fa00e9aa4be6fcac78f860edd1a35f5eb87c4a1b43e40f7865"),
    (('discriminate', 'x^3 + y^3', 'x^4 + y^4'), 0,
     "b1275a43d31f0136d1c4219c0ab372d8c6c87014299653f630496f29cb347f7d"),
    (('discriminate', 'x^3 + y^4', 'x^3 + x*y^3'), 0,
     "33ee2a51c4ac5dad0ed877ebef1e19fbd510f23c43a8e6439f8baf5ccab92895"),
    (('discriminate', 'x^2*y^2 + x^5 + y^5', 'x^2*y^2 + x^5 + y^6'), 0,
     "1aae83c66dc8a80a617a294d5a6c53317624e0cfe4d8d03b389b8a54c5affea3"),
    (('discriminate', 'x^3 + y^3 + z^3', 'x^3 + y^3 + z^3 + x^4'), 0,
     "112ccd730f00a07d68e3f683469ced2aee9ac2c377baa0fb75b68bc17759866f"),
    (('family', '--rescale', 'x^3 + y^3 + x^4', '--find-line'), 0,
     "3d1ef0ae7c85e7e7e71448da5d3e69ca16f5a4b35feb223b2ea65e6d3d5a5144"),
    (('family', '--rescale', 'x^2*y + y^5', '--find-line'), 0,
     "d20a7108f84f43074eed25370ed37c462ea22f86ec799a2e96292f8f5c9183b0"),
    (('family', '--find-alpha', 'x^3 + 2*y^3'), 0,
     "eaa7113c415c1e05d7685125ae4ee13ce49007038b1036944e6edd79203fb66e"),
    (('family', '--find-alpha', 'x^4 + x^2*y^2 + 3*y^4'), 0,
     "3a5c0879c1cd43974e68872db46af7e0bb6a5fee9c940945508dffef78921ab6"),
    (('foliation', 'x^2', 'y^3'), 0,
     "eb90b91e821c463dc3826add5581724e5a0bb612c327e0cb5d71f44249380387"),
    (('foliation', '2*x*y', 'x^2 + 4*y^3'), 0,
     "799b4720d63b9a245dfae7c489e0c9969aece0f18422092e9ae7a4646336b24a"),
    (('corpus',), 0,
     "beaff78b416a7d3091524ebb688910909b190c7ba34dd7d3f79a1510630ae4b5"),
    (('mult', 'x^2*y + y^4 + z^5'), 0,
     "5871cb8dc2ad326b9bbb1e4efa6d21464c609b90741b4486b0aedc6878164ffc"),
    (('--format', 'text', 'milnor', 'x^2*y + y^5'), 0,
     "95040ebe46d8b29702a45e2fbaba048312d1cb84d260d6b821624324c1b987c5"),
    (('charpoly', '--fermat', 'l=3,n=3'), 0,
     "54dafa30c570bc04fa99f2fd7b8847c7121e9eba2908354b25ccd7119f011259"),
    (('zeta', '--fermat', 'l=5,n=3', '--K', '12'), 0,
     "763e209e230d5a52cee97bfce514d131b4bb948479669269778a0e3dfc407d27"),
    (('discriminate', 'x^2*y^2', 'x^3 + y^3'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('foliation', 'x^2 + y*z', 'y^3', 'z^2 + x*y'), 0,
     "ae4ae5662f312ea050c25cc14ce213b26f61a10b434259171fdd438657c3c316"),
)

# The fresh-interpreter call behind cli_cold_ms: start-up plus one light germ.
COLD_CALL = CLI_CALLS[2]  # germinv milnor "x^3 + y^4"
