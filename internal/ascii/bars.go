package ascii

// Bar renders frac (clamped to [0, 1]) as a fixed-width horizontal
// gauge using block-drawing characters, with eighth-block resolution
// in the final cell — the building block of borgview top's live view.
// Width values below 1 are raised to 1.
func Bar(frac float64, width int) string {
	if width < 1 {
		width = 1
	}
	if frac < 0 || frac != frac { // NaN renders empty
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// 8 sub-cells per character: index 0 is empty, 8 is a full block.
	eighths := []rune(" ▏▎▍▌▋▊▉█")
	cells := frac * float64(width)
	full := int(cells)
	rem := int((cells - float64(full)) * 8)
	out := make([]rune, width)
	for i := range out {
		switch {
		case i < full:
			out[i] = eighths[8]
		case i == full && rem > 0:
			out[i] = eighths[rem]
		default:
			out[i] = eighths[0]
		}
	}
	return string(out)
}
