package repro.core

/** Spark's string semantics on the driver: Spark measures and orders
  * strings by Unicode code point, where Java's `String` methods count and
  * compare UTF-16 `char`s. The two disagree on characters outside the BMP.
  */
object CodePoints {

  /** Length in code points, as Spark's `length`. */
  def length(s: String): Int = s.codePointCount(0, s.length)

  /** Code-point order, as Spark's string order (UTF-8 bytes). */
  def compare(a: String, b: String): Int = {
    var i = 0
    while (i < a.length && i < b.length) {
      val ca = a.codePointAt(i)
      val cb = b.codePointAt(i)
      if (ca != cb) return Integer.compare(ca, cb)
      i += Character.charCount(ca)
    }
    Integer.compare(a.length - i, b.length - i)
  }
}
