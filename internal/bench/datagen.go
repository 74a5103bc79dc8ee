package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"kumquat/internal/unix"
)

// Inputs generates the synthetic input files an input kind needs, scaled
// to roughly `lines` lines of primary input, as a map from file name to
// contents. Generation is deterministic for a given (kind, lines) pair.
//
// These generators substitute for the paper's datasets (3.4 GB bus
// telemetry, 927 MB of Project Gutenberg books, ~1 GB script-specific
// inputs): they reproduce the line/field structure and key skew that drive
// combiner behaviour and reduction ratios, at configurable scale.
func Inputs(kind string, lines int) (map[string]string, error) {
	rng := rand.New(rand.NewSource(int64(len(kind))*1315423911 + int64(lines)))
	files := map[string]string{}
	switch kind {
	case "mts":
		files["in/mts.csv"] = genMTS(rng, lines)
	case "text":
		files["in/text.txt"] = genText(rng, lines)
	case "twotexts":
		files["in/text.txt"] = genText(rng, lines)
		files["in/text2.txt"] = genText(rng, lines)
	case "files":
		files["in/files.txt"] = genFileList(rng, lines)
	case "books":
		genBooks(files, rng, lines)
	case "names":
		files["in/names.txt"] = genNames(rng, lines)
	case "history":
		files["in/history.tsv"] = genHistory(rng, lines)
	case "chess":
		files["in/chess.txt"] = genChess(rng, lines)
	case "source":
		files["in/source.txt"] = genSource(rng, lines)
	case "bodies":
		files["in/bodies.txt"] = genBodies(rng, lines)
	case "offices":
		files["in/offices.txt"] = genOffices(rng, lines)
	case "credits":
		files["in/credits.txt"] = genCredits(rng, lines)
	case "poem":
		files["in/poem.txt"] = genPoem(rng, lines)
	case "mail":
		files["in/mail.txt"] = genMail(rng, lines)
	case "awards":
		files["in/awards.txt"] = genAwards(rng, lines)
	default:
		return nil, fmt.Errorf("bench: unknown input kind %q", kind)
	}
	return files, nil
}

var vocab = []string{
	"the", "light", "of", "sea", "and", "wind", "stone", "dark", "river",
	"night", "ship", "king", "gold", "dream", "land", "said", "he", "And",
	"word", "time", "green", "song", "Light", "house", "morning", "letter",
}

// genText produces book-like prose: mixed-case words, commas and periods,
// the word "light" frequent enough for the poets/grep benchmarks.
func genText(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		n := 4 + rng.Intn(8)
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(vocab[rng.Intn(len(vocab))])
			if rng.Intn(9) == 0 {
				b.WriteByte(',')
			}
		}
		b.WriteByte('.')
		b.WriteByte('\n')
	}
	return b.String()
}

// genMTS produces bus-telemetry CSV rows shaped like the COVID-19 dataset:
// ISO timestamp, transit line, vehicle, reading.
func genMTS(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		day := 1 + rng.Intn(28)
		month := 1 + rng.Intn(12)
		fmt.Fprintf(&b, "2020-%02d-%02dT%02d:%02d:%02d,line%d,v%03d,r%d\n",
			month, day, rng.Intn(24), rng.Intn(60), rng.Intn(60),
			1+rng.Intn(20), 1+rng.Intn(40), rng.Intn(100))
	}
	return b.String()
}

// genFileList lists the default FS corpus (for shortest-scripts.sh),
// repeating to reach the requested scale.
func genFileList(rng *rand.Rand, lines int) string {
	names := unix.NewFS().DictionaryNames()
	var b strings.Builder
	for i := 0; i < lines; i++ {
		b.WriteString(names[rng.Intn(len(names))])
		b.WriteByte('\n')
	}
	return b.String()
}

// genBooks adds the poets corpus to files: pg/bookNN.txt files plus the
// genesis/exodus-style standalone book. The phrases "the land of" and
// "And he said" appear so the trigram_rec greps have matches.
func genBooks(files map[string]string, rng *rand.Rand, lines int) {
	books := lines/60 + 1
	if books > 40 {
		books = 40
	}
	perBook := lines / books
	if perBook < 5 {
		perBook = 5
	}
	for i := 0; i < books; i++ {
		var b strings.Builder
		for l := 0; l < perBook; l++ {
			switch rng.Intn(12) {
			case 0:
				b.WriteString("And he said unto the land of ")
				b.WriteString(vocab[rng.Intn(len(vocab))])
				b.WriteByte('\n')
			default:
				n := 4 + rng.Intn(8)
				for j := 0; j < n; j++ {
					if j > 0 {
						b.WriteByte(' ')
					}
					b.WriteString(vocab[rng.Intn(len(vocab))])
				}
				b.WriteByte('\n')
			}
		}
		files[fmt.Sprintf("pg/book%02d.txt", i)] = b.String()
	}
	files["in/genesis.txt"] = genText(rng, perBook)
}

var firstNames = []string{"Ken", "Dennis", "Brian", "Rob", "Doug", "Bjarne", "Grace", "Ada", "Alan", "Barbara"}
var lastNames = []string{"Thompson", "Ritchie", "Kernighan", "Pike", "McIlroy", "Stroustrup", "Hopper", "Lovelace", "Turing", "Liskov"}

func genNames(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, "%s %s\n", firstNames[rng.Intn(len(firstNames))], lastNames[rng.Intn(len(lastNames))])
	}
	return b.String()
}

func genHistory(rng *rand.Rand, lines int) string {
	orgs := []string{"AT&T Bell Labs research unix,", "Berkeley CSRG bsd systems,", "MIT project multics lab,"}
	machines := []string{"pdp7", "pdp11", "vax", "interdata"}
	var b strings.Builder
	for i := 0; i < lines; i++ {
		year := 1969 + rng.Intn(30)
		fmt.Fprintf(&b, "%s\t%s\tv%d\t%d\n",
			orgs[rng.Intn(len(orgs))], machines[rng.Intn(len(machines))], 1+rng.Intn(10), year)
	}
	return b.String()
}

// genChess produces move-list lines like "1.e4 exd5 2.Nf3 Nxe5": white's
// move glued to the move number (as in compact PGN), black's separate.
// The glued form is what makes the unix50 4.x pipelines meaningful
// (grep 'x' | grep '\.' | cut -d '.' -f 2 isolates capturing moves).
func genChess(rng *rand.Rand, lines int) string {
	pieces := []string{"K", "Q", "R", "B", "N", ""}
	move := func() string {
		s := pieces[rng.Intn(len(pieces))]
		if rng.Intn(3) == 0 {
			s += "x"
		}
		return s + fmt.Sprintf("%c%d", 'a'+rng.Intn(8), 1+rng.Intn(8))
	}
	var b strings.Builder
	for i := 0; i < lines; i++ {
		moves := 2 + rng.Intn(6)
		for m := 1; m <= moves; m++ {
			if m > 1 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d.%s %s", m, move(), move())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func genSource(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		switch rng.Intn(5) {
		case 0:
			fmt.Fprintf(&b, "print(\"hello world %d\")\n", rng.Intn(100))
		case 1:
			fmt.Fprintf(&b, "x = %d\n", rng.Intn(1000))
		default:
			fmt.Fprintf(&b, "// comment %s\n", vocab[rng.Intn(len(vocab))])
		}
	}
	return b.String()
}

func genBodies(rng *rand.Rand, lines int) string {
	bodies := []string{"mercury", "venus", "earth", "mars", "jupiter", "saturn", "uranus", "neptune", "pluto"}
	var b strings.Builder
	for i := 0; i < lines; i++ {
		name := bodies[rng.Intn(len(bodies))]
		fmt.Fprintf(&b, "%s %d\n", name, 10+rng.Intn(5000))
	}
	return b.String()
}

func genOffices(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "  Bell Labs, %d Mountain Ave, Murray Hill\n", 100+rng.Intn(900))
		case 1:
			b.WriteString("Bell Telephone Laboratories, New York City, a very long office address line here\n")
		default:
			fmt.Fprintf(&b, "Office %d, %s Street\n", rng.Intn(100), vocab[rng.Intn(len(vocab))])
		}
	}
	return b.String()
}

func genCredits(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		if rng.Intn(3) != 0 {
			fmt.Fprintf(&b, "%s feature (%s %s)\n", vocab[rng.Intn(len(vocab))],
				firstNames[rng.Intn(len(firstNames))], lastNames[rng.Intn(len(lastNames))])
		} else {
			fmt.Fprintf(&b, "plain credit line %d\n", i)
		}
	}
	return b.String()
}

func genPoem(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, "\"%s %s\" sang the %s\n", vocab[rng.Intn(len(vocab))],
				vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))])
		case 1:
			fmt.Fprintf(&b, "PORT and BELL at Night %d\n", rng.Intn(50))
		default:
			n := 3 + rng.Intn(6)
			for j := 0; j < n; j++ {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(vocab[rng.Intn(len(vocab))])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func genMail(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "To: %s@bell-labs.com %s@research.att.com\n",
				strings.ToLower(firstNames[rng.Intn(len(firstNames))]),
				strings.ToLower(lastNames[rng.Intn(len(lastNames))]))
		case 1:
			fmt.Fprintf(&b, "From: %s@cs.example.edu\n", strings.ToLower(firstNames[rng.Intn(len(firstNames))]))
		default:
			fmt.Fprintf(&b, "body text %s %s\n", vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))])
		}
	}
	return b.String()
}

func genAwards(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		year := 1960 + rng.Intn(60)
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "%d National Medal of Technology for UNIX\n", year)
		} else {
			fmt.Fprintf(&b, "%d Prize for %s\n", year, vocab[rng.Intn(len(vocab))])
		}
	}
	return b.String()
}
