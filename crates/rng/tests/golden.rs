//! Golden values of every random stream the workspace draws from.
//!
//! Every die, scan and experiment table is a function of these bits, so a
//! change to the generator, a draw, a stream-seed family or a normal
//! sampler must fail here, not only as changed experiment output. The
//! constants were captured from the workspace's generator and samplers
//! before they moved into this crate, so the move changed no bit.

use bsa_rng::{
    box_muller, channel_stream_seed, conversion_stream_seed, stream_seed, GaussianSampler,
    SmallRng, Ziggurat,
};

/// Asserts `got` equals `want` bit for bit, naming the draw.
fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
    let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
    assert_eq!(got, want, "{what}");
}

#[test]
fn next_u64_from_two_seeds() {
    let draws = |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ]
    };
    assert_eq!(
        draws(0),
        [
            0x5317_5d61_490b_23df,
            0x61da_6f3d_c380_d507,
            0x5c0f_df91_ec9a_7bfc,
            0x02ee_bf8c_3bbe_5e1a,
        ]
    );
    assert_eq!(
        draws(2005),
        [
            0x1c06_3a0d_de3f_2ccd,
            0x5248_3f2c_064b_1a50,
            0x2091_d382_92e0_346f,
            0x213f_898d_05b7_2c11,
        ]
    );
}

#[test]
fn unit_f64_from_two_seeds() {
    let draws = |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..4).map(|_| rng.next_f64()).collect::<Vec<_>>()
    };
    assert_bits(
        "seed 0",
        &draws(0),
        &[
            0.324_575_268_031_406_7,
            0.382_239_296_511_673_43,
            0.359_617_207_647_355_3,
            0.011_455_508_934_653_635,
        ],
    );
    assert_bits(
        "seed 2005",
        &draws(2005),
        &[
            0.109_470_013_032_702_54,
            0.321_414_898_155_392_9,
            0.127_225_131_395_676_48,
            0.129_875_752_381_590_66,
        ],
    );
}

#[test]
fn range_draws_from_two_seeds() {
    let draws = |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..8).map(|i| rng.gen_range(i..20)).collect::<Vec<_>>()
    };
    assert_eq!(draws(0), [6, 8, 8, 3, 11, 5, 18, 17]);
    assert_eq!(draws(2005), [2, 7, 4, 5, 17, 14, 14, 16]);
}

#[test]
fn bernoulli_draws_from_two_seeds() {
    let draws = |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..8).map(|_| rng.gen_bool(0.3)).collect::<Vec<_>>()
    };
    let (t, f) = (true, false);
    assert_eq!(draws(0), [f, f, f, t, f, t, f, f]);
    assert_eq!(draws(2005), [t, f, t, t, f, f, f, f]);
}

#[test]
fn stream_seed_families() {
    assert_eq!(stream_seed(1, 2, 3), 0xfed9_eeb4_936d_e39d);
    assert_eq!(stream_seed(0xDEAD, 0, 0), 0x0a04_18f0_91df_a956);
    let die = 0x0EE5_1281;
    assert_eq!(channel_stream_seed(die, 0), 0x8817_6353_2a18_6cc9);
    assert_eq!(channel_stream_seed(die, 1), 0x57b4_1908_e89e_84d4);
    assert_eq!(channel_stream_seed(die, 15), 0x0564_fe29_f1b1_857f);
    let die = 0xD9A_C819;
    assert_eq!(conversion_stream_seed(die, 0, 0), 0xcd82_0a0b_63ff_a1d3);
    assert_eq!(conversion_stream_seed(die, 0, 1), 0x5fbc_e9b3_953b_efe8);
    assert_eq!(conversion_stream_seed(die, 3, 127), 0x858d_724a_9dfe_6226);
}

#[test]
fn ziggurat_draws() {
    let zig = Ziggurat::new();
    let mut rng = SmallRng::seed_from_u64(11);
    let first: Vec<f64> = (0..6).map(|_| zig.sample(&mut rng)).collect();
    assert_bits(
        "first draws, seed 11",
        &first,
        &[
            1.104_780_073_794_422_7,
            0.854_681_810_532_420_6,
            1.943_509_936_753_212_7,
            0.576_144_620_460_034_6,
            -1.262_424_393_537_119_5,
            0.563_078_196_645_069_5,
        ],
    );
    // The 275th draw from seed 12 is the first beyond R: the tail path.
    let mut rng = SmallRng::seed_from_u64(12);
    let draws: Vec<f64> = (0..2000).map(|_| zig.sample(&mut rng)).collect();
    assert_bits(
        "draw 275, seed 12",
        &draws[274..275],
        &[-4.062_012_773_490_052],
    );
    let sum: f64 = draws.iter().sum();
    assert_bits("sum of 2000, seed 12", &[sum], &[-20.240_124_121_672_01]);
}

#[test]
fn polar_draws() {
    let mut polar = GaussianSampler::new();
    let mut rng = SmallRng::seed_from_u64(11);
    let first: Vec<f64> = (0..5).map(|_| polar.sample(&mut rng)).collect();
    assert_bits(
        "first draws, seed 11",
        &first,
        &[
            0.361_336_994_883_308_1,
            0.307_790_926_928_146_97,
            0.437_229_088_355_525_43,
            0.097_219_686_578_895_24,
            -0.997_164_754_793_900_7,
        ],
    );
    let mut polar = GaussianSampler::new();
    let mut rng = SmallRng::seed_from_u64(12);
    let sum: f64 = (0..2000).map(|_| polar.sample(&mut rng)).sum();
    assert_bits("sum of 2000, seed 12", &[sum], &[2.356_559_868_797_605_7]);
}

#[test]
fn box_muller_draws() {
    let mut rng = SmallRng::seed_from_u64(11);
    let first: Vec<f64> = (0..4).map(|_| box_muller(&mut rng)).collect();
    assert_bits(
        "first draws, seed 11",
        &first,
        &[
            0.688_610_824_476_221_7,
            -2.056_710_526_767_406_4,
            -0.178_853_213_798_195_88,
            0.523_819_696_775_050_1,
        ],
    );
    let mut rng = SmallRng::seed_from_u64(12);
    let sum: f64 = (0..2000).map(|_| box_muller(&mut rng)).sum();
    assert_bits("sum of 2000, seed 12", &[sum], &[-70.180_406_164_677_44]);
}
