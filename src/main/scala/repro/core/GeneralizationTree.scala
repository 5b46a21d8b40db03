package repro.core

/** The generalization tree of the paper (Fig. 1).
  *
  * Leaves are characters of the alphabet; intermediate nodes are the four
  * base classes — upper-case letters `\LU`, lower-case letters `\LL`,
  * digits `\D`, and all remaining symbols `\S` — whose common parent is
  * `\A` (any character). The paper's alphabet is ASCII-ish; we classify by
  * the ASCII ranges so regex compilation and class membership agree.
  */
sealed trait CharClass {
  /** Paper notation, e.g. "\\LU". */
  def name: String

  /** Character-class body usable inside a Java regex `[...]`. */
  def regexBody: String

  /** Whether character `ch` is a leaf under this node. */
  def accepts(ch: Char): Boolean
}

object CharClass {

  /** `\LU` — upper-case letters A–Z. */
  case object Upper extends CharClass {
    val name = "\\LU"; val regexBody = "A-Z"
    def accepts(ch: Char): Boolean = ch >= 'A' && ch <= 'Z'
  }

  /** `\LL` — lower-case letters a–z. */
  case object Lower extends CharClass {
    val name = "\\LL"; val regexBody = "a-z"
    def accepts(ch: Char): Boolean = ch >= 'a' && ch <= 'z'
  }

  /** `\D` — digits 0–9. */
  case object Digit extends CharClass {
    val name = "\\D"; val regexBody = "0-9"
    def accepts(ch: Char): Boolean = ch >= '0' && ch <= '9'
  }

  /** `\S` — any character that is not a letter or digit (punctuation, space…). */
  case object Symbol extends CharClass {
    val name = "\\S"; val regexBody = "^A-Za-z0-9"
    def accepts(ch: Char): Boolean = !Upper.accepts(ch) && !Lower.accepts(ch) && !Digit.accepts(ch)
  }

  /** `\A` — the root: any character. */
  case object AnyCh extends CharClass {
    val name = "\\A"; val regexBody = "" // unused; AnyCh compiles to '.' with DOTALL
    def accepts(ch: Char): Boolean = true
  }

  /** The four base (non-root) classes, i.e. the intermediate tree level. */
  val bases: Seq[CharClass] = Seq(Upper, Lower, Digit, Symbol)

  /** The base class of the code point `cp` — its immediate parent in the
    * tree. A code point outside the BMP is one symbol, as in a compiled
    * pattern, which matches code points.
    */
  def of(cp: Int): CharClass =
    if (!Character.isBmpCodePoint(cp)) Symbol
    else if (Upper.accepts(cp.toChar)) Upper
    else if (Lower.accepts(cp.toChar)) Lower
    else if (Digit.accepts(cp.toChar)) Digit
    else Symbol

  /** Parent node, or None for the root. */
  def parent(c: CharClass): Option[CharClass] = c match {
    case AnyCh => None
    case _     => Some(AnyCh)
  }

  /** True iff `general` is an ancestor-or-self of `specific`. */
  def subsumes(general: CharClass, specific: CharClass): Boolean =
    general == specific || general == AnyCh

  /** Least upper bound of two nodes in the tree. */
  def lub(a: CharClass, b: CharClass): CharClass = if (a == b) a else AnyCh
}
