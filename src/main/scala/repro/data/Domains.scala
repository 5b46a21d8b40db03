package repro.data

/** The "real world" of the synthetic datasets — value pools and the
  * generating maps. The maps double as the validation oracle of §5.2:
  * where the paper queries gender-api.com / uszipcode / fax prefixes, we
  * query the mapping the generator drew from (see DESIGN.md §3).
  *
  * Confounders the paper reports are built in:
  *  - unisex first names (false positives for name → gender),
  *  - cities with several zip prefixes whose *first digits differ*, so a
  *    city never determines a common zip prefix (keeps ground truth scoped
  *    to the forward direction),
  *  - "branch fax" noise is injected by the table generators.
  */
object Domains {

  // ------------------------------------------------------------------
  // People.
  // ------------------------------------------------------------------

  val maleFirst: Vector[String] = Vector(
    "John", "David", "Michael", "James", "Robert", "William", "Richard", "Joseph",
    "Thomas", "Charles", "Daniel", "Matthew", "Anthony", "Donald", "Steven", "Paul",
    "Andrew", "Joshua", "Kenneth", "Kevin", "Brian", "George", "Edward", "Ronald",
    "Jerry", "Alan", "Henry", "Walter", "Peter", "Harold")

  val femaleFirst: Vector[String] = Vector(
    "Mary", "Susan", "Patricia", "Linda", "Barbara", "Elizabeth", "Jennifer", "Maria",
    "Margaret", "Dorothy", "Lisa", "Nancy", "Karen", "Betty", "Helen", "Sandra",
    "Donna", "Carol", "Ruth", "Sharon", "Michelle", "Laura", "Sarah", "Kimberly",
    "Deborah", "Jessica", "Stacey", "Cynthia", "Angela", "Melissa")

  /** Names used by both genders — the paper's stated FP source for
    * Full Name → Gender (§2.2 "a unisex name cannot determine the gender").
    */
  val unisexFirst: Vector[String] = Vector("Kim", "Alex", "Jordan", "Casey")

  val lastNames: Vector[String] = Vector(
    "Smith", "Johnson", "Brown", "Taylor", "Anderson", "Jackson", "White", "Harris",
    "Martin", "Thompson", "Garcia", "Martinez", "Robinson", "Clark", "Rodriguez",
    "Lewis", "Lee", "Walker", "Hall", "Allen", "Young", "Hernandez", "King", "Wright",
    "Lopez", "Hill", "Scott", "Green", "Adams", "Baker", "Gonzalez", "Nelson",
    "Carter", "Mitchell", "Perez", "Roberts", "Turner", "Phillips", "Campbell",
    "Parker", "Evans", "Edwards", "Collins", "Stewart", "Sanchez", "Morris",
    "Rogers", "Reed", "Cook", "Morgan")

  /** Validation oracle for first-name → gender ("M"/"F"); None = unisex. */
  def genderOf(first: String): Option[String] =
    if (maleFirst.contains(first)) Some("M")
    else if (femaleFirst.contains(first)) Some("F")
    else None

  // ------------------------------------------------------------------
  // Geography: zip prefixes and phone/fax area codes.
  // Every city has ≥2 prefixes with different first digits (see class doc).
  // ------------------------------------------------------------------

  /** (3-digit zip prefix, city, state). */
  val zipPrefixes: Vector[(String, String, String)] = Vector(
    ("900", "Los Angeles", "CA"), ("213", "Los Angeles", "CA"),
    ("941", "San Francisco", "CA"), ("650", "San Francisco", "CA"),
    ("606", "Chicago", "IL"), ("312", "Chicago", "IL"),
    ("627", "Springfield", "IL"), ("217", "Springfield", "IL"),
    ("100", "New York", "NY"), ("711", "New York", "NY"),
    ("146", "Rochester", "NY"), ("585", "Rochester", "NY"),
    ("021", "Boston", "MA"), ("622", "Boston", "MA"),
    ("015", "Worcester", "MA"), ("508", "Worcester", "MA"),
    ("331", "Miami", "FL"), ("786", "Miami", "FL"),
    ("322", "Jacksonville", "FL"), ("904", "Jacksonville", "FL"),
    ("303", "Atlanta", "GA"), ("404", "Atlanta", "GA"),
    ("319", "Savannah", "GA"), ("912", "Savannah", "GA"),
    ("752", "Dallas", "TX"), ("214", "Dallas", "TX"),
    ("770", "Houston", "TX"), ("281", "Houston", "TX"),
    ("981", "Seattle", "WA"), ("206", "Seattle", "WA"),
    ("992", "Spokane", "WA"), ("324", "Spokane", "WA"),
    ("064", "Hartford", "CT"), ("860", "Hartford", "CT"),
    ("065", "New Haven", "CT"), ("465", "New Haven", "CT"),
    ("432", "Columbus", "OH"), ("614", "Columbus", "OH"),
    ("441", "Cleveland", "OH"), ("114", "Cleveland", "OH"),
    ("191", "Philadelphia", "PA"), ("267", "Philadelphia", "PA"),
    ("152", "Pittsburgh", "PA"), ("615", "Pittsburgh", "PA"))

  /** zip prefix → city (validation oracle, uszipcode stand-in). */
  val zipToCity: Map[String, String] = zipPrefixes.map(z => z._1 -> z._2).toMap
  /** zip prefix → state. */
  val zipToState: Map[String, String] = zipPrefixes.map(z => z._1 -> z._3).toMap
  /** city → state. */
  val cityToState: Map[String, String] = zipPrefixes.map(z => z._2 -> z._3).toMap

  /** (area code, state) for phone and fax numbers. Each state has ≥2 codes
    * with different first digits.
    */
  val areaCodes: Vector[(String, String)] = Vector(
    ("213", "CA"), ("650", "CA"), ("312", "IL"), ("630", "IL"),
    ("212", "NY"), ("607", "NY"), ("617", "MA"), ("413", "MA"),
    ("305", "FL"), ("850", "FL"), ("404", "GA"), ("912", "GA"),
    ("214", "TX"), ("832", "TX"), ("206", "WA"), ("509", "WA"),
    ("860", "CT"), ("203", "CT"), ("614", "OH"), ("216", "OH"),
    ("215", "PA"), ("412", "PA"))

  /** area code → state (validation oracle for Fax/Phone → State). */
  val areaToState: Map[String, String] = areaCodes.toMap

  val states: Vector[String] = zipPrefixes.map(_._3).distinct

  // ------------------------------------------------------------------
  // Organizations: departments, courses, funds, agencies.
  // ------------------------------------------------------------------

  /** employee-id prefix letter → department (the paper's "F-9-107" example). */
  val deptLetters: Vector[(String, String)] = Vector(
    ("F", "Finance"), ("H", "Human Resources"), ("E", "Engineering"),
    ("M", "Marketing"), ("S", "Sales"), ("R", "Research"), ("L", "Legal"))

  /** course/dept code → department name. */
  val deptCodes: Vector[(String, String)] = Vector(
    ("CS", "Computer Science"), ("EE", "Electrical Engineering"),
    ("ME", "Mechanical Engineering"), ("BI", "Biology"), ("CH", "Chemistry"),
    ("PH", "Physics"), ("MA", "Mathematics"), ("EC", "Economics"),
    ("HI", "History"), ("PS", "Psychology"))

  /** federal agency code → agency name. */
  val agencies: Vector[(String, String)] = Vector(
    ("047", "General Services Administration"), ("036", "Department of Veterans Affairs"),
    ("097", "Department of Defense"), ("075", "Department of Health"),
    ("012", "Department of Agriculture"), ("014", "Department of the Interior"),
    ("069", "Department of Transportation"), ("089", "Department of Energy"))

  /** fund code prefix → fund name. */
  val funds: Vector[(String, String)] = Vector(
    ("SCH", "Scholarship Fund"), ("ATH", "Athletics Fund"), ("LIB", "Library Fund"),
    ("RES", "Research Fund"), ("BLD", "Building Fund"), ("ART", "Arts Fund"))

  // ------------------------------------------------------------------
  // ChEMBL-flavoured pools.
  // ------------------------------------------------------------------

  /** pref-name family prefix → protein class description (the T10 example of
    * §5.3: "Nicotinic acetylcholine receptor \A* → ion channel lgic ach").
    */
  val proteinFamilies: Vector[(String, String)] = Vector(
    ("Nicotinic acetylcholine receptor", "ion channel lgic ach chrn"),
    ("Dopamine receptor", "membrane receptor 7tm1 monoamine"),
    ("Serotonin receptor", "membrane receptor 7tm1 monoamine"),
    ("Carbonic anhydrase", "enzyme lyase"),
    ("Cytochrome P450", "enzyme cytochrome p450"),
    ("Tyrosine-protein kinase", "enzyme kinase protein tk"),
    ("Sodium channel protein", "ion channel vgc sodium"),
    ("Histone deacetylase", "enzyme eraser hdac"))

  /** assay type code → description. */
  val assayTypes: Vector[(String, String)] = Vector(
    ("B", "Binding"), ("F", "Functional"), ("A", "ADME"), ("T", "Toxicity"))

  /** activity standard type → its units (ChEMBL convention). */
  val activityTypes: Vector[(String, String)] = Vector(
    ("IC50", "nM"), ("Ki", "nM"), ("EC50", "nM"), ("Potency", "nM"),
    ("Inhibition", "%"), ("Activity", "%"), ("T1/2", "hr"), ("CL", "mL.min-1.g-1"))

  /** organism → (tax id, species group). */
  val organisms: Vector[(String, String, String)] = Vector(
    ("Homo sapiens", "9606", "mammal"), ("Mus musculus", "10090", "mammal"),
    ("Rattus norvegicus", "10116", "mammal"), ("Bos taurus", "9913", "mammal"),
    ("Escherichia coli", "562", "bacteria"), ("Danio rerio", "7955", "fish"))

  /** doi prefix → (journal, issn). */
  val journals: Vector[(String, String, String)] = Vector(
    ("10.1016", "J Med Chem", "0022-2623"), ("10.1021", "Bioorg Med Chem", "0968-0896"),
    ("10.1038", "Nature", "0028-0836"), ("10.1126", "Science", "0036-8075"),
    ("10.1093", "Nucleic Acids Res", "0305-1048"), ("10.1002", "ChemMedChem", "1860-7179"))

  val molTypes: Vector[(String, String)] = Vector(
    ("Small molecule", "MOL"), ("Protein", "SEQ"), ("Antibody", "SEQ"),
    ("Oligonucleotide", "SEQ"), ("Unknown", "NONE"))

  val grades: Vector[String] = Vector("A", "A-", "B+", "B", "B-", "C+", "C", "D", "F")
  val seasons: Vector[String] = Vector("Fall", "Spring", "Summer")
  val degrees: Vector[String] = Vector("BSc", "BA", "MSc", "MBA", "PhD")
  val statuses: Vector[String] = Vector("Active", "Pending", "Closed", "Expired", "Renewed")
  val regions: Map[String, String] = Map(
    "CA" -> "West", "WA" -> "West", "IL" -> "Midwest", "OH" -> "Midwest",
    "NY" -> "Northeast", "MA" -> "Northeast", "CT" -> "Northeast", "PA" -> "Northeast",
    "FL" -> "South", "GA" -> "South", "TX" -> "South")
}
