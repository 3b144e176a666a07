//! Property-based tests for the BDI codec invariants.

use bdi::{
    explore_best_choice, explore_best_choice_reference, fpc, BdiCodec, ChoiceSet,
    CompressionIndicator, FixedChoice, WarpRegister, BANK_BYTES, WARP_REGISTER_BYTES, WARP_SIZE,
};
use proptest::prelude::*;

/// Every choice-set shape the codec supports, from the full dynamic
/// scheme down to disabled.
fn all_choice_sets() -> Vec<ChoiceSet> {
    let mut sets = vec![ChoiceSet::warped_compression(), ChoiceSet::disabled()];
    sets.extend(FixedChoice::ALL.iter().map(|&c| ChoiceSet::only(c)));
    sets
}

fn arb_register() -> impl Strategy<Value = WarpRegister> {
    prop::array::uniform32(any::<u32>()).prop_map(WarpRegister::new)
}

/// Registers biased towards the similar-value patterns GPU code produces.
fn arb_similar_register() -> impl Strategy<Value = WarpRegister> {
    (any::<u32>(), -300i64..300, prop::array::uniform32(-4i64..4)).prop_map(
        |(base, stride, jitter)| {
            WarpRegister::from_fn(|t| {
                let v = base as i64 + stride * t as i64 + jitter[t % WARP_SIZE];
                v as u32
            })
        },
    )
}

/// Pins every single-pass path against its multi-pass oracle on one
/// register, for one codec per choice set: the compressed form, both
/// round trips, the early-exit class and footprint, the explorer and the
/// FPC scan.
fn assert_oracle_pins(reg: &WarpRegister) {
    for set in all_choice_sets() {
        let codec = BdiCodec::new(set);
        let compressed = codec.compress(reg);
        assert_eq!(
            compressed,
            codec.compress_reference(reg),
            "{codec:?} vs the multi-pass oracle"
        );
        assert_eq!(codec.decompress(&compressed), *reg, "{codec:?} round trip");
        assert_eq!(
            codec.try_decompress(&compressed).as_ref(),
            Ok(reg),
            "{codec:?} validated round trip"
        );
        assert_eq!(
            codec.classify(reg),
            compressed.class(),
            "{codec:?} classify"
        );
        assert_eq!(
            codec.footprint(reg),
            compressed.banks_required(),
            "{codec:?} footprint"
        );
    }
    assert_eq!(
        explore_best_choice(reg),
        explore_best_choice_reference(reg),
        "explorer oracle"
    );
    assert_eq!(
        fpc::compressed_bits(reg.as_lanes()),
        fpc::compressed_bits_reference(reg.as_lanes()),
        "fpc scan oracle"
    );
}

/// Adversarial fixtures: every width boundary the classification can sit
/// on, wraparound bases, mixed-width lanes and zero-run shapes for FPC.
fn adversarial_registers() -> Vec<WarpRegister> {
    let mut regs = vec![
        WarpRegister::ZERO,
        WarpRegister::splat(u32::MAX),
        WarpRegister::splat(0x8000_0000),
        WarpRegister::from_fn(|t| t as u32),
        WarpRegister::from_fn(|t| u32::MAX.wrapping_add(t as u32)),
        WarpRegister::from_fn(|t| (t as u32).wrapping_mul(0x9E37_79B9)),
        // Mixed widths: alternating 1-byte and 2-byte deltas.
        WarpRegister::from_fn(|t| 600 + if t % 2 == 0 { t as u32 } else { 400 + t as u32 }),
        // Pairwise 64-bit similarity (exercises the explorer's B8 path).
        WarpRegister::from_fn(|t| if t % 2 == 0 { 0 } else { 0x7000_0000 }),
        // FPC zero runs longer than one 8-word run encoding, and
        // periodic single zeros.
        WarpRegister::from_fn(|t| if (4..23).contains(&t) { 0 } else { 77 }),
        WarpRegister::from_fn(|t| if t % 3 == 0 { 0 } else { 0x0045_FFFF }),
    ];
    // A single outlier lane at each signed-width boundary, in the first
    // and last delta lanes and on both sides of the early-exit
    // classify's first 8-lane block edge (lanes 7 and 8).
    for lane in [1usize, 7, 8, 30, 31] {
        for outlier in [
            127u32,
            128,
            0x7FFF,
            0x8000,
            -128i32 as u32,
            -129i32 as u32,
            -32768i32 as u32,
            -32769i32 as u32,
        ] {
            let mut reg = WarpRegister::splat(1000);
            reg.set_lane(lane, 1000u32.wrapping_add(outlier));
            regs.push(reg);
        }
    }
    regs
}

#[test]
fn oracles_pin_on_adversarial_registers() {
    for reg in adversarial_registers() {
        assert_oracle_pins(&reg);
    }
}

proptest! {
    /// Compress-then-decompress is the identity for every register value.
    #[test]
    fn round_trip_identity(reg in arb_register()) {
        let codec = BdiCodec::default();
        let c = codec.compress(&reg);
        prop_assert_eq!(codec.decompress(&c), reg);
    }

    /// Round trip also holds for the similarity-biased distribution that
    /// actually exercises the compressed paths.
    #[test]
    fn round_trip_identity_similar(reg in arb_similar_register()) {
        let codec = BdiCodec::default();
        let c = codec.compress(&reg);
        prop_assert_eq!(codec.decompress(&c), reg);
    }

    /// The compressed form never occupies more banks than the raw form.
    #[test]
    fn never_expands(reg in arb_register()) {
        let c = BdiCodec::default().compress(&reg);
        prop_assert!(c.banks_required() <= WARP_REGISTER_BYTES / BANK_BYTES);
        prop_assert!(c.stored_len() <= WARP_REGISTER_BYTES);
    }

    /// The indicator always agrees with the actual bank footprint.
    #[test]
    fn indicator_consistent_with_banks(reg in arb_similar_register()) {
        let c = BdiCodec::default().compress(&reg);
        prop_assert_eq!(c.indicator().banks_accessed(), if c.is_compressed() { c.banks_required() } else { 8 });
    }

    /// Nesting (§4): anything <4,0>-compressible is <4,1>-compressible,
    /// and anything <4,1>-compressible is <4,2>-compressible.
    #[test]
    fn choices_are_nested(reg in arb_similar_register()) {
        let c0 = BdiCodec::new(ChoiceSet::only(FixedChoice::Delta0)).compress(&reg);
        let c1 = BdiCodec::new(ChoiceSet::only(FixedChoice::Delta1)).compress(&reg);
        let c2 = BdiCodec::new(ChoiceSet::only(FixedChoice::Delta2)).compress(&reg);
        if c0.is_compressed() {
            prop_assert!(c1.is_compressed());
        }
        if c1.is_compressed() {
            prop_assert!(c2.is_compressed());
        }
    }

    /// The dynamic scheme picks the smallest fitting choice: its bank count
    /// is the minimum over the single-choice codecs.
    #[test]
    fn dynamic_choice_is_optimal_among_fixed(reg in arb_similar_register()) {
        let dynamic = BdiCodec::default().compress(&reg);
        let min_banks = FixedChoice::ALL
            .iter()
            .map(|&ch| BdiCodec::new(ChoiceSet::only(ch)).compress(&reg).banks_required())
            .min()
            .unwrap();
        prop_assert_eq!(dynamic.banks_required(), min_banks);
    }

    /// The full-BDI explorer never does worse than the runtime scheme.
    #[test]
    fn explorer_at_least_as_good(reg in arb_similar_register()) {
        let runtime = BdiCodec::default().compress(&reg);
        let best = explore_best_choice(&reg);
        let explorer_len = best.layout().map_or(WARP_REGISTER_BYTES, |l| l.compressed_len());
        prop_assert!(explorer_len <= runtime.stored_len());
    }

    /// A masked merge with the full mask equals the new value, with the
    /// empty mask equals the old value (divergence-handling invariant).
    #[test]
    fn merge_mask_extremes(a in arb_register(), b in arb_register()) {
        prop_assert_eq!(a.merge_masked(&b, u32::MAX), b);
        prop_assert_eq!(a.merge_masked(&b, 0), a);
    }

    /// Compressing a register twice (decompress then recompress) is stable:
    /// the second pass picks the same representation.
    #[test]
    fn recompression_is_stable(reg in arb_similar_register()) {
        let codec = BdiCodec::default();
        let once = codec.compress(&reg);
        let twice = codec.compress(&codec.decompress(&once));
        prop_assert_eq!(once, twice);
    }

    /// Indicator bits survive the 2-bit hardware encoding.
    #[test]
    fn indicator_bit_round_trip(reg in arb_similar_register()) {
        let ind = BdiCodec::default().compress(&reg).indicator();
        prop_assert_eq!(CompressionIndicator::from_bits(ind.bits()), ind);
    }

    /// The single-pass compressor is bit-identical to the multi-pass
    /// reference oracle — same choice of layout, same base, same deltas,
    /// same bank footprint — for every choice-set shape, on uniformly
    /// random registers; classify, footprint, the round trips, the
    /// explorer and the FPC scan agree with their oracles too.
    #[test]
    fn single_pass_matches_oracle(reg in arb_register()) {
        assert_oracle_pins(&reg);
    }

    /// Oracle equivalence on the similarity-biased distribution, which
    /// actually lands in each of the three compressed layouts.
    #[test]
    fn single_pass_matches_oracle_similar(reg in arb_similar_register()) {
        assert_oracle_pins(&reg);
    }

    /// Sign-boundary adversary: a splat with one outlier lane whose
    /// delta is drawn tightly around the 1-/2-byte signed limits.
    #[test]
    fn oracles_pin_on_sign_boundary_outliers(
        base in any::<u32>(),
        lane in 1usize..WARP_SIZE,
        boundary in prop::sample::select(vec![0i64, 127, 128, 255, 32767, 32768, 65535]),
        sign in any::<bool>(),
    ) {
        let delta = if sign { -boundary } else { boundary };
        let mut reg = WarpRegister::splat(base);
        reg.set_lane(lane, base.wrapping_add(delta as u32));
        assert_oracle_pins(&reg);
    }

    /// The reference path itself round-trips, so agreement with it is
    /// agreement with a correct compressor.
    #[test]
    fn oracle_round_trips(reg in arb_similar_register()) {
        let codec = BdiCodec::default();
        let c = codec.compress_reference(&reg);
        prop_assert_eq!(codec.decompress(&c), reg);
    }

    /// The fused single-pass explorer picks the same best choice as the
    /// seven-layout reference scan.
    #[test]
    fn single_pass_explorer_matches_reference(reg in arb_register()) {
        prop_assert_eq!(explore_best_choice(&reg), explore_best_choice_reference(&reg));
    }

    /// Explorer oracle equivalence on the similarity-biased distribution,
    /// where the compressed layouts (including 8-byte bases) actually win.
    #[test]
    fn single_pass_explorer_matches_reference_similar(reg in arb_similar_register()) {
        prop_assert_eq!(explore_best_choice(&reg), explore_best_choice_reference(&reg));
    }
}
