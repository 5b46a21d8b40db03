package repro.core.discovery

import repro.core.CodePoints

/** Partial-value extraction (restriction (i) of §4.2).
  *
  * `tokens` splits on special characters — strong signals for meaningful
  * substrings (F-9-107, "John Charles"). `prefixes` emits the leading
  * n-grams of code-like columns, capped in length.
  */
object Tokenizer {

  /** A mined partial value: the substring, its position (token index for
    * `tokens`; 0 for `prefixes`, which all start the value), and whether
    * anything follows it in the original value (token boundary information
    * used when the pattern is turned into a constrained pattern). Position
    * 0 means "begins at offset 0", so a part at 0 with `atEnd` is the whole
    * value.
    */
  final case class Part(token: String, pos: Int, atEnd: Boolean)

  /** Whether the code point at index `i` of `s` is a separator: anything
    * but a letter or digit, tested per code point so that a letter outside
    * the BMP is one letter, not two separators.
    */
  private def isSep(s: String, i: Int): Boolean = !Character.isLetterOrDigit(s.codePointAt(i))

  /** Whether `s` holds a letter or digit, per code point. Pure-symbol
    * substrings (a lone space or dash) carry no semantics: tokenization
    * discards them as separators, and as n-grams they let junk like "city
    * has a space at offset 3" pass f.
    */
  def informative(s: String): Boolean = s.codePoints().anyMatch(Character.isLetterOrDigit(_))

  /** Split into separator-delimited tokens with token indexes, counted
    * from 1 when the value starts with a separator: the first token of
    * " abc" is at 1, so no token at 0 follows a separator.
    */
  def tokens(s: String): Seq[Part] = {
    if (s == null || s.isEmpty) return Seq.empty
    val out = Vector.newBuilder[Part]
    var i = 0
    var pos = if (isSep(s, 0)) 1 else 0
    val n = s.length
    def next(i: Int): Int = s.offsetByCodePoints(i, 1)
    while (i < n) {
      while (i < n && isSep(s, i)) i = next(i)
      if (i < n) {
        val start = i
        while (i < n && !isSep(s, i)) i = next(i)
        // trailing separators still mean "not at end" for boundary purposes
        out += Part(s.substring(start, i), pos, atEnd = i == n)
        pos += 1
      }
    }
    out.result()
  }

  /** Longest prefix `prefixes` emits, in code points. */
  val MaxPrefixLen = 12

  /** The prefixes of `s` (offset 0) of 1 to `MaxPrefixLen` code points, plus
    * the whole value when it is longer; `atEnd` marks the whole value. A
    * prefix never ends inside a surrogate pair. Linear in the value's
    * length, which bounds challenge C2.
    */
  def prefixes(s: String): Seq[Part] = {
    if (s == null || s.isEmpty) return Seq.empty
    val n = CodePoints.length(s)
    val ps = (1 to math.min(n, MaxPrefixLen))
      .map(l => Part(s.substring(0, s.offsetByCodePoints(0, l)), 0, atEnd = l == n))
    if (n > MaxPrefixLen) ps :+ Part(s, 0, atEnd = true) else ps
  }
}
